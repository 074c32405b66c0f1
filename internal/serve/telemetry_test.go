package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"crocus/internal/faultinject"
	"crocus/internal/obs"
	"crocus/internal/obs/promtext"
)

func postVerifyWithID(t *testing.T, url, id string, req *VerifyRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if id != "" {
		hreq.Header.Set("X-Request-ID", id)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getFlightz(t *testing.T, url string) FlightzResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/debug/flightz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightz status %d", resp.StatusCode)
	}
	var fz FlightzResponse
	if err := json.NewDecoder(resp.Body).Decode(&fz); err != nil {
		t.Fatal(err)
	}
	return fz
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed on
// the response, stamped into the access log, and carried by the flight
// exemplar; absent a header the server mints one.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := obs.NewLogger(&syncWriter{w: &logBuf, mu: &logMu}, "json", "info")
	tracer := obs.New()
	tracer.SetRing(1024)
	s := newTestServer(t, Config{
		MaxInflight:   2,
		Tracer:        tracer,
		Logger:        logger,
		FlightLatency: time.Nanosecond, // everything is "slow": every request promotes
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postVerifyWithID(t, ts.URL, "client-req-7", &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "client-req-7" {
		t.Fatalf("echoed X-Request-ID = %q, want client-req-7", got)
	}

	// No header: the server mints a 16-hex-char ID and echoes it.
	resp2, _ := postVerifyWithID(t, ts.URL, "", &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	minted := resp2.Header.Get("X-Request-ID")
	if !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(minted) {
		t.Fatalf("minted X-Request-ID = %q, want 16 hex chars", minted)
	}

	// Access log: one JSON line per request carrying the request ID,
	// endpoint, status, and the promotion marker.
	logMu.Lock()
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	logMu.Unlock()
	found := false
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("access log line %q is not JSON: %v", line, err)
		}
		if rec["msg"] != "request" {
			continue
		}
		if rec["request_id"] == "client-req-7" {
			found = true
			if rec["endpoint"] != "verify" || rec["status"] != float64(200) {
				t.Errorf("access log record = %v", rec)
			}
			if rec["flight_promoted"] != true {
				t.Errorf("flight_promoted = %v, want true (latency threshold 1ns)", rec["flight_promoted"])
			}
		}
	}
	if !found {
		t.Fatalf("no access-log line for client-req-7 in:\n%s", logBuf.String())
	}

	// Flight exemplars: both requests were promoted (slow), newest first,
	// carrying their request IDs and the serve.request span.
	fz := getFlightz(t, ts.URL)
	if fz.Finished < 2 || fz.Promoted < 2 {
		t.Fatalf("flightz finished/promoted = %d/%d, want >= 2/2", fz.Finished, fz.Promoted)
	}
	byID := map[string]obs.Exemplar{}
	for _, ex := range fz.Exemplars {
		byID[ex.RequestID] = ex
	}
	for _, id := range []string{"client-req-7", minted} {
		ex, ok := byID[id]
		if !ok {
			t.Fatalf("no exemplar for request %q (have %v)", id, keysOf(byID))
		}
		if len(ex.Causes) == 0 || ex.Causes[len(ex.Causes)-1] != obs.FlightSlow {
			t.Errorf("exemplar %s causes = %v, want slow", id, ex.Causes)
		}
		names := map[string]bool{}
		for _, sp := range ex.Spans {
			names[sp.Name] = true
		}
		if !names[obs.PhaseServeRequest] || !names[obs.PhaseServeVerify] {
			t.Errorf("exemplar %s spans %v missing serve.request/serve.verify", id, keysOf2(names))
		}
	}
}

// TestCoalescedWaiterRequestID: when a waiter coalesces onto a leader's
// flight, both requests keep their own identities — each gets its own
// exemplar under its own request ID, and the leader's exemplar carries
// the shared solve's spans.
func TestCoalescedWaiterRequestID(t *testing.T) {
	tracer := obs.New()
	tracer.SetRing(4096)
	s := newTestServer(t, Config{
		MaxInflight:   4,
		Tracer:        tracer,
		FlightLatency: time.Nanosecond,
	})
	release := make(chan struct{})
	s.solveGate = func(ctx context.Context, rule string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	statuses := make([]int, 2)
	for i, id := range []string{"leader-req", "waiter-req"} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, _ := postVerifyWithID(t, ts.URL, id, &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
			statuses[i] = resp.StatusCode
		}(i, id)
		if i == 0 {
			// Let the first request become the leader before the second
			// arrives (the waiter joins whichever flight is registered).
			waitForFlights(t, s, 1)
		}
	}
	waitForWaiters(t, s, 1)
	close(release)
	wg.Wait()

	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("request %d status %d", i, st)
		}
	}
	if got := s.Registry().Counter("serve.solve.rules").Value(); got != 1 {
		t.Fatalf("solve.rules = %d, want 1 (coalesced)", got)
	}

	fz := getFlightz(t, ts.URL)
	byID := map[string]obs.Exemplar{}
	for _, ex := range fz.Exemplars {
		byID[ex.RequestID] = ex
	}
	leader, ok := byID["leader-req"]
	if !ok {
		t.Fatalf("no exemplar for leader-req (have %v)", keysOf(byID))
	}
	if _, ok := byID["waiter-req"]; !ok {
		t.Fatalf("no exemplar for waiter-req (have %v)", keysOf(byID))
	}
	// The shared solve ran under the leader's flight (re-homed onto the
	// server's base context), so its serve.verify span is in the leader's
	// exemplar.
	names := map[string]bool{}
	for _, sp := range leader.Spans {
		names[sp.Name] = true
	}
	if !names[obs.PhaseServeVerify] {
		t.Fatalf("leader exemplar spans %v missing the re-homed serve.verify", keysOf2(names))
	}
}

// TestShedPromotesFlight: a request the queue timeout sheds with 429 is
// promoted into the flight recorder with the shed cause — sheds are
// exactly the requests operators want exemplars of.
func TestShedPromotesFlight(t *testing.T) {
	tracer := obs.New()
	tracer.SetRing(256)
	s := newTestServer(t, Config{
		MaxInflight:   1,
		QueueTimeout:  50 * time.Millisecond,
		Tracer:        tracer,
		FlightLatency: -1, // isolate the explicit shed cause
	})
	holdSlot(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postVerifyWithID(t, ts.URL, "shed-req", &VerifyRequest{Files: testFiles(), Rule: "rotr_broken"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	fz := getFlightz(t, ts.URL)
	if len(fz.Exemplars) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(fz.Exemplars))
	}
	ex := fz.Exemplars[0]
	if ex.RequestID != "shed-req" || ex.Status != http.StatusTooManyRequests {
		t.Fatalf("exemplar = %s/%d, want shed-req/429", ex.RequestID, ex.Status)
	}
	if len(ex.Causes) != 1 || ex.Causes[0] != obs.FlightShed {
		t.Fatalf("causes = %v, want [shed]", ex.Causes)
	}
}

// TestPanicPromotesAndDumps: a contained handler panic promotes the
// request's flight with the panic cause and dumps a valid Chrome trace
// to the configured path.
func TestPanicPromotesAndDumps(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.trace.json")
	tracer := obs.New()
	tracer.SetRing(1024)
	s := newTestServer(t, Config{
		MaxInflight:   2,
		Tracer:        tracer,
		FlightLatency: -1,
		FlightDump:    dump,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Warm the span ring: the panic fires at handler entry, so the dump's
	// content is whatever the ring held — the preceding request's spans.
	if resp, body := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "iadd_base"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status %d: %s", resp.StatusCode, body)
	}

	if err := faultinject.Arm("serve.handler=panic:1"); err != nil {
		t.Fatal(err)
	}
	resp, _ := postVerifyWithID(t, ts.URL, "panic-req", &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	faultinject.Reset()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}

	fz := getFlightz(t, ts.URL)
	if len(fz.Exemplars) != 1 {
		t.Fatalf("exemplars = %d, want 1", len(fz.Exemplars))
	}
	ex := fz.Exemplars[0]
	if ex.RequestID != "panic-req" {
		t.Fatalf("exemplar request = %q", ex.RequestID)
	}
	causes := map[string]bool{}
	for _, c := range ex.Causes {
		causes[c] = true
	}
	// Panic (explicit) and error (status 500) both mark the flight.
	if !causes[obs.FlightPanic] || !causes[obs.FlightError] {
		t.Fatalf("causes = %v, want panic+error", ex.Causes)
	}

	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("panic dump not written: %v", err)
	}
	if _, err := obs.ValidateChromeTrace(data, nil); err != nil {
		t.Fatalf("panic dump is not a valid Chrome trace: %v", err)
	}
}

// TestMetricszAgreesWithStatusz: /metricsz parses as OpenMetrics and
// reports exactly the counters and histogram totals statusz does — one
// registry, two expositions.
func TestMetricszAgreesWithStatusz(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, body := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}

	mr, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	var mbuf bytes.Buffer
	if _, err := mbuf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if ct := mr.Header.Get("Content-Type"); ct != promtext.ContentType {
		t.Fatalf("content type = %q", ct)
	}
	fams, err := promtext.Parse(mbuf.String())
	if err != nil {
		t.Fatalf("metricsz does not parse as OpenMetrics: %v\n%s", err, mbuf.String())
	}

	sr, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var rep StatusReport
	if err := json.NewDecoder(sr.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()

	// Every statusz counter appears in the exposition with the same value
	// (modulo the statusz request itself, which can bump nothing here —
	// statusz was sampled after metricsz, so allow counters to grow, not
	// shrink or vanish).
	for name, v := range rep.Counters {
		fam, ok := fams[promtext.MetricName(name)]
		if !ok {
			t.Errorf("counter %s missing from /metricsz", name)
			continue
		}
		if fam.Type != "counter" || int64(fam.Value) > v {
			t.Errorf("counter %s: metricsz %v vs statusz %d", name, fam.Value, v)
		}
	}
	for name, h := range rep.Histograms {
		fam, ok := fams[promtext.MetricName(name)]
		if !ok {
			t.Errorf("histogram %s missing from /metricsz", name)
			continue
		}
		if fam.Type != "histogram" || int64(fam.Count) != h.Count {
			t.Errorf("histogram %s: metricsz count %v vs statusz %d", name, fam.Count, h.Count)
		}
		// The interpolated estimates stay within the exposition's bucket
		// bounds: p99_est can never exceed the largest finite le.
		var maxLE float64
		for _, b := range fam.Buckets {
			if !math.IsInf(b.LE, 1) && b.LE > maxLE {
				maxLE = b.LE
			}
		}
		if h.Count > 0 && h.P99Est > maxLE {
			t.Errorf("histogram %s: p99_est %v above max bucket bound %v", name, h.P99Est, maxLE)
		}
		if h.Count > 0 && (h.P50Est > h.P90Est || h.P90Est > h.P99Est) {
			t.Errorf("histogram %s: estimates not monotone: %v %v %v", name, h.P50Est, h.P90Est, h.P99Est)
		}
	}
}

// syncWriter serializes concurrent handler log writes during tests.
type syncWriter struct {
	w  *bytes.Buffer
	mu *sync.Mutex
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func keysOf(m map[string]obs.Exemplar) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func keysOf2(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func waitForFlights(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		got := len(s.flights)
		s.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flights = %d, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func waitForWaiters(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		var joined int64
		for _, f := range s.flights {
			joined += f.waiters.Load()
		}
		s.mu.Unlock()
		if joined >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters = %d, want %d", joined, n)
		}
		time.Sleep(time.Millisecond)
	}
}
