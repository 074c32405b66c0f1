package resilient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"crocus/internal/faultinject"
)

// testClient builds a client whose sleeps record instead of sleeping and
// whose jitter is pinned to the deterministic midpoint.
func testClient(cfg Config, slept *[]time.Duration) *Client {
	cfg.Sleep = func(ctx context.Context, d time.Duration) error {
		*slept = append(*slept, d)
		return ctx.Err()
	}
	cfg.Rand = func() float64 { return 0 } // backoff = d/2 exactly
	return New(cfg)
}

type echo struct {
	N int `json:"n"`
}

// TestRetriesThenSucceeds: two 500s then a 200 — the client retries with
// doubling backoff and delivers the eventual reply.
func TestRetriesThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"n":7}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := testClient(Config{MaxRetries: 3, BaseBackoff: 100 * time.Millisecond}, &slept)
	var out echo
	if err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 7 {
		t.Fatalf("decoded %+v, want n=7", out)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	// Midpoint jitter: base/2, then (2·base)/2.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != 2 || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("backoffs %v, want %v", slept, want)
	}
	if s := c.Stats(); s.Retries != 2 || s.Attempts != 3 {
		t.Fatalf("stats %+v, want 2 retries / 3 attempts", s)
	}
}

// TestBackoffCap: the exponential curve clips at MaxBackoff.
func TestBackoffCap(t *testing.T) {
	c := New(Config{BaseBackoff: time.Second, MaxBackoff: 4 * time.Second, Rand: func() float64 { return 1 }})
	if got := c.backoff(10); got > 4*time.Second {
		t.Fatalf("backoff(10) = %s, exceeds cap", got)
	}
	// And deep attempts don't overflow the shift into a negative duration.
	if got := c.backoff(62); got <= 0 || got > 4*time.Second {
		t.Fatalf("backoff(62) = %s", got)
	}
}

// TestHonorsRetryAfter: a 429 with Retry-After waits at least that long,
// not the (shorter) computed backoff.
func TestHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"shedding"}`, http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"n":1}`))
	}))
	defer srv.Close()

	var slept []time.Duration
	c := testClient(Config{MaxRetries: 1, BaseBackoff: time.Millisecond}, &slept)
	var out echo
	if err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &out); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 7*time.Second {
		t.Fatalf("slept %v, want the server's 7s Retry-After", slept)
	}
}

// TestNoRetryOn4xx: a 400 is the caller's bug; retrying would repeat it.
func TestNoRetryOn4xx(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
	}))
	defer srv.Close()

	var slept []time.Duration
	c := testClient(Config{MaxRetries: 5}, &slept)
	err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &echo{})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want HTTPError 400", err)
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Fatalf("4xx retried: %d calls, %v sleeps", calls.Load(), slept)
	}
}

// TestRetriesExhausted: persistent 500s surface the last HTTPError after
// MaxRetries+1 attempts.
func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()

	var slept []time.Duration
	c := testClient(Config{MaxRetries: 2}, &slept)
	err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &echo{})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want HTTPError 500", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (1 + 2 retries)", calls.Load())
	}
}

// TestInjectedConnectionError drives the retry ladder through the
// client.request failpoint: every attempt dies client-side, the server
// never sees traffic, and the injected error surfaces after exhaustion.
func TestInjectedConnectionError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	if err := faultinject.Arm("client.request=error:1"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	var slept []time.Duration
	c := testClient(Config{MaxRetries: 2}, &slept)
	err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &echo{})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if calls.Load() != 0 {
		t.Fatal("injected connection faults reached the server")
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoffs, want 2", len(slept))
	}
}

// TestInjectedFaultRecovers: a fault probability below 1 with retries
// armed means the run still completes — the resilience invariant the
// chaos job leans on.
func TestInjectedFaultRecovers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"n":3}`))
	}))
	defer srv.Close()

	// seed/probability chosen so the first attempt triggers and a retry
	// does not (deterministic, see faultinject's contract).
	if err := faultinject.Arm("client.request=error:0.5,seed=3"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	var slept []time.Duration
	c := testClient(Config{MaxRetries: 4}, &slept)
	var out echo
	if err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &out); err != nil {
		t.Fatal(err)
	}
	if out.N != 3 {
		t.Fatalf("decoded %+v", out)
	}
}

// TestContextCancelStopsRetries: a canceled caller context ends the loop
// immediately instead of burning the remaining retries.
func TestContextCancelStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var calls int
	c := New(Config{
		MaxRetries: 100,
		Sleep: func(ctx context.Context, d time.Duration) error {
			calls++
			cancel() // the user hits ^C during the first backoff
			return ctx.Err()
		},
	})
	err := c.PostJSON(ctx, srv.URL, map[string]int{}, &echo{})
	if err == nil {
		t.Fatal("want error after cancellation")
	}
	if calls != 1 {
		t.Fatalf("slept %d times after cancellation, want 1", calls)
	}
}

// TestPerAttemptTimeout: a hung server costs one Timeout per attempt,
// never a hang.
func TestPerAttemptTimeout(t *testing.T) {
	stall := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer srv.Close()
	defer close(stall) // LIFO: unblock the handler before srv.Close waits on it

	c := New(Config{Timeout: 50 * time.Millisecond, MaxRetries: -1})
	start := time.Now()
	err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &echo{})
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("attempt took %s despite 50ms timeout", elapsed)
	}
}

// TestMaxRetriesDefaults pins the documented Config semantics: the zero
// value retries 3 times, negative disables retries entirely.
func TestMaxRetriesDefaults(t *testing.T) {
	for _, tc := range []struct {
		in, want int
	}{
		{0, 3}, {-1, 0}, {1, 1}, {7, 7},
	} {
		if got := (Config{MaxRetries: tc.in}).maxRetries(); got != tc.want {
			t.Errorf("Config{MaxRetries: %d}.maxRetries() = %d, want %d", tc.in, got, tc.want)
		}
	}

	// End to end: a zero-value Config really retries — 4 attempts total.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()
	var slept []time.Duration
	c := testClient(Config{}, &slept)
	if err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &echo{}); err == nil {
		t.Fatal("want error after exhausted retries")
	}
	if calls.Load() != 4 {
		t.Fatalf("zero-value config made %d attempts, want 4 (1 + 3 default retries)", calls.Load())
	}

	// Negative: exactly one attempt, no sleeps.
	calls.Store(0)
	slept = nil
	c = testClient(Config{MaxRetries: -1}, &slept)
	if err := c.PostJSON(context.Background(), srv.URL, map[string]int{}, &echo{}); err == nil {
		t.Fatal("want error with retries disabled")
	}
	if calls.Load() != 1 || len(slept) != 0 {
		t.Fatalf("MaxRetries=-1 made %d attempts with %d sleeps, want 1 and 0", calls.Load(), len(slept))
	}
}

// TestRetryAfterParsing pins the header grammar the daemon emits.
func TestRetryAfterParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"7", 7 * time.Second}, {" 2 ", 2 * time.Second},
		{"-1", 0}, {"soon", 0},
	} {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
}
