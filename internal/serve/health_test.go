package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"crocus/internal/faultinject"
)

// TestReadyzLifecycle: ready when idle, not ready once draining, healthz
// live throughout.
func TestReadyzLifecycle(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rr, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("idle readyz = %d, want 200", rr.StatusCode)
	}

	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rr, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", rr.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz = %d, want 200 (liveness outlives readiness)", hr.StatusCode)
	}
}

// TestHandlerFaultContained: an injected serve.handler panic becomes a
// contained 500 — and the daemon keeps serving afterwards. This is the
// chaos invariant at the HTTP seam: a handler fault never kills the
// process or corrupts a later verdict.
func TestHandlerFaultContained(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultinject.Arm("serve.handler=panic:1"); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(&VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d under injected handler panic, want 500", resp.StatusCode)
	}
	if got := s.Registry().Counter("serve.panics").Value(); got == 0 {
		t.Fatal("contained panic not counted")
	}
	faultinject.Reset()

	// The daemon is intact: the same request now verifies normally.
	resp2, body2 := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status %d: %s", resp2.StatusCode, body2)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body2, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict.Outcome != "success" {
		t.Fatalf("post-fault verdict %s, want success", vr.Verdict.Outcome)
	}
}

// TestStatuszFaultsAndWatermarks: statusz surfaces the armed fault spec
// with per-site counters, and the watermark gauges move.
func TestStatuszFaultsAndWatermarks(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := faultinject.Arm("smt.solve=error:0,seed=9"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	resp, body := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
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
	if rep.FaultSpec != "smt.solve=error:0,seed=9" {
		t.Fatalf("fault_spec = %q", rep.FaultSpec)
	}
	st, ok := rep.Faults["smt.solve"]
	if !ok {
		t.Fatalf("faults section missing smt.solve: %v", rep.Faults)
	}
	if st.Kind != "error" || st.Hits == 0 || st.Triggered != 0 {
		t.Fatalf("smt.solve stats %+v, want error kind, >0 hits, 0 triggered (prob 0)", st)
	}
	if rep.Watermarks.PeakGoroutines == 0 || rep.Watermarks.PeakHeapBytes == 0 {
		t.Fatalf("watermarks not sampled: %+v", rep.Watermarks)
	}
	if rep.Watermarks.Goroutines == 0 || rep.Watermarks.HeapBytes == 0 {
		t.Fatalf("live watermark gauges empty: %+v", rep.Watermarks)
	}
}
