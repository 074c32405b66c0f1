package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// holdSlot fills a one-slot server's worker slot: a resident midend
// rule's solve parks in solveGate until release is called (or the test
// ends), so every request for another rule waits out the queue timeout.
// Once released, solveGate lets every solve through.
func holdSlot(t *testing.T, s *Server) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	gate := make(chan struct{})
	var enter sync.Once
	s.solveGate = func(ctx context.Context, rule string) {
		enter.Do(func() { close(entered) })
		select {
		case <-gate:
		case <-ctx.Done():
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := VerifyRequest{Corpus: "midend", Rule: "bor_band_not_fixed"}
		_, _, _ = s.verifyOne(context.Background(), &r)
	}()
	<-entered
	var rel sync.Once
	release = func() {
		rel.Do(func() {
			close(gate)
			<-done // the slot is free again
		})
	}
	t.Cleanup(release)
	return release
}

// TestQueueTimeout: with the pool saturated by a distinct (uncoalescable
// -with) rule, a second rule's request is rejected 429 within the queue
// timeout.
func TestQueueTimeout(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueTimeout: 50 * time.Millisecond})
	holdSlot(t, s)

	r := VerifyRequest{Files: testFiles(), Rule: "rotr_broken"}
	_, status, err := s.verifyOne(context.Background(), &r)
	if err == nil || status != http.StatusTooManyRequests {
		t.Fatalf("saturated pool: status %d err %v, want 429", status, err)
	}
	if got := s.Registry().Counter("serve.rejected.queue_timeout").Value(); got != 1 {
		t.Fatalf("rejected.queue_timeout = %d, want 1", got)
	}
}

// TestQueueTimeoutCarriesRetryAfter: the saturated-pool 429 (queue
// timeout) advertises the queue timeout as Retry-After over HTTP.
func TestQueueTimeoutCarriesRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	holdSlot(t, s)

	resp, _ := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "rotr_broken"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// 50ms rounds up to the 1s minimum: clients must not hot-loop.
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
}

// TestBatchShedAsAWhole: a batch with an item the queue timeout shed is
// answered 429 with Retry-After, not 200 with a per-item error the
// client would never retry; the same batch sent once the slot is free
// verifies every item.
func TestBatchShedAsAWhole(t *testing.T) {
	// The queue timeout must outlast one item's solve while the other
	// item waits for the slot on the retry.
	s := newTestServer(t, Config{MaxInflight: 1, QueueTimeout: time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	release := holdSlot(t, s)

	body, err := json.Marshal(&BatchRequest{Requests: []VerifyRequest{
		{Files: testFiles(), Rule: "iadd_base"},
		{Files: testFiles(), Rule: "rotr_broken"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (*http.Response, BatchResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/verify/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var bresp BatchResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
				t.Fatal(err)
			}
		}
		return resp, bresp
	}

	resp, _ := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch behind a held slot: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}

	release()
	resp, bresp := post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after release: status %d, want 200", resp.StatusCode)
	}
	want := []string{"success", "failure"}
	if len(bresp.Items) != len(want) {
		t.Fatalf("items = %d, want %d", len(bresp.Items), len(want))
	}
	for i, it := range bresp.Items {
		if it.Status != "ok" || it.Verdict == nil || it.Verdict.Outcome != want[i] {
			t.Fatalf("item %d = %+v, want ok/%s", i, it, want[i])
		}
	}
}
