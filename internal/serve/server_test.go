package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// testPrelude is the miniature corpus prelude from the core tests,
// shipped inline the way a client would.
const testPrelude = `
(type Inst (primitive Inst))
(type InstOutput (primitive InstOutput))
(type Value (primitive Value))
(type Reg (primitive Reg))
(type Type (primitive Type))

(model Type Int)
(model Value (bv))
(model Inst (bv))
(model InstOutput (bv))
(model Reg (bv 64))

(decl lower (Inst) InstOutput)
(spec (lower arg) (provide (= result arg)))

(decl put_in_reg (Value) Reg)
(spec (put_in_reg arg) (provide (= result (convto 64 arg))))
(convert Value Reg put_in_reg)

(decl output_reg (Reg) InstOutput)
(spec (output_reg arg) (provide (= result (convto (widthof result) arg))))
(convert Reg InstOutput output_reg)

(decl has_type (Type Inst) Inst)
(spec (has_type ty arg) (provide (= result arg) (= ty (widthof arg))))

(form bin_8_to_64
	((args (bv 8) (bv 8)) (ret (bv 8)))
	((args (bv 16) (bv 16)) (ret (bv 16)))
	((args (bv 32) (bv 32)) (ret (bv 32)))
	((args (bv 64) (bv 64)) (ret (bv 64))))

(decl iadd (Value Value) Inst)
(spec (iadd x y) (provide (= result (+ x y))))
(instantiate iadd bin_8_to_64)

(decl rotr (Value Value) Inst)
(spec (rotr x y) (provide (= result (rotr x y))))
(instantiate rotr bin_8_to_64)

(decl a64_add (Type Reg Reg) Reg)
(spec (a64_add ty x y) (provide (= result (+ x y))))

(decl a64_rotr_64 (Reg Reg) Reg)
(spec (a64_rotr_64 x y) (provide (= result (rotr x y))))
`

const testRules = `
(rule iadd_base
	(lower (has_type ty (iadd x y)))
	(a64_add ty x y))

;; The paper's broken first attempt (§2.3): 64-bit ROR for every width.
(rule rotr_broken
	(lower (has_type ty (rotr x y)))
	(a64_rotr_64 x y))
`

func testFiles() []SourceFile {
	return []SourceFile{
		{Name: "prelude.isle", Src: testPrelude},
		{Name: "rules.isle", Src: testRules},
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Corpora == nil {
		cfg.Corpora = []string{"midend"}
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postVerify(t *testing.T, url string, req *VerifyRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/verify", "application/json", bytes.NewReader(body))
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

func TestVerifyEndpoint(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "iadd_base"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict.Rule != "iadd_base" || vr.Verdict.Outcome != "success" {
		t.Fatalf("verdict = %s/%s, want iadd_base/success", vr.Verdict.Rule, vr.Verdict.Outcome)
	}
	if len(vr.Verdict.Insts) != 4 {
		t.Fatalf("insts = %d, want 4", len(vr.Verdict.Insts))
	}
	for _, iv := range vr.Verdict.Insts {
		if iv.Outcome != "success" || iv.SigRet == "" {
			t.Fatalf("inst verdict %+v", iv)
		}
	}

	// The broken rotr rule must come back as a failure with a rendered
	// counterexample on a narrow width.
	resp, body = postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "rotr_broken"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Verdict.Outcome != "failure" {
		t.Fatalf("rotr_broken outcome = %s, want failure", vr.Verdict.Outcome)
	}
	foundCex := false
	for _, iv := range vr.Verdict.Insts {
		if iv.Counterexample != nil && iv.Counterexample.Rendered != "" {
			foundCex = true
		}
	}
	if !foundCex {
		t.Fatal("no rendered counterexample in failing verdict")
	}

	// Resident-corpus requests work too, and the second parse is served
	// from the inline-program cache.
	resp, body = postVerify(t, ts.URL, &VerifyRequest{Corpus: "midend", Rule: "bor_band_not_fixed"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := s.Registry().Counter("serve.parse.miss").Value(); got != 1 {
		t.Fatalf("parse.miss = %d, want 1 (second inline request should hit the parsed-program cache)", got)
	}

	// healthz is alive; statusz reports the request counters.
	hr, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hr, err)
	}
	hr.Body.Close()
	sr, err := http.Get(ts.URL + "/v1/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var status StatusReport
	if err := json.NewDecoder(sr.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if status.Counters["serve.requests.verify"] != 3 {
		t.Fatalf("statusz requests.verify = %d, want 3", status.Counters["serve.requests.verify"])
	}
	if status.Draining {
		t.Fatal("statusz reports draining on a live server")
	}
	// Scheduler stats: the pool is sized at MaxInflight, every verified
	// unit was executed on it, and the queue is empty on an idle server.
	if status.Sched.Workers != 2 {
		t.Fatalf("statusz sched.workers = %d, want MaxInflight (2)", status.Sched.Workers)
	}
	if len(status.Sched.PerWorker) != status.Sched.Workers {
		t.Fatalf("statusz units_per_worker has %d entries, want %d", len(status.Sched.PerWorker), status.Sched.Workers)
	}
	if status.Sched.Executed == 0 {
		t.Fatal("statusz sched.units = 0 after three verify requests")
	}
	if status.Sched.QueueDepth != 0 {
		t.Fatalf("statusz sched.queue_depth = %d on an idle server", status.Sched.QueueDepth)
	}
}

func TestVerifyRequestErrors(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  VerifyRequest
		want int
	}{
		{"missing rule", VerifyRequest{Files: testFiles()}, http.StatusBadRequest},
		{"unknown rule", VerifyRequest{Files: testFiles(), Rule: "nope"}, http.StatusNotFound},
		{"unknown corpus", VerifyRequest{Corpus: "sparc", Rule: "r"}, http.StatusBadRequest},
		{"both sources", VerifyRequest{Corpus: "midend", Files: testFiles(), Rule: "r"}, http.StatusBadRequest},
		{"no sources", VerifyRequest{Rule: "r"}, http.StatusBadRequest},
		{"parse error", VerifyRequest{Files: []SourceFile{{Name: "x.isle", Src: "(decl"}}, Rule: "r"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postVerify(t, ts.URL, &tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not an ErrorResponse", tc.name, body)
		}
	}

	// Non-POST methods are rejected.
	resp, err := http.Get(ts.URL + "/v1/verify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/verify: status %d, want 405", resp.StatusCode)
	}
}

// TestVerifyRejectsEngineSwitches: solver pipeline and engine switches
// are not part of the wire API. A body carrying one is an unknown field
// to the strict decoder, so it gets a 400 before any unit reaches the
// worker pool.
func TestVerifyRejectsEngineSwitches(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	for _, field := range []string{"fresh", "no_inprocess", "no_structhash"} {
		status, body := post(`{"corpus":"midend","rule":"bor_band_not_fixed","` + field + `":true}`)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", field, status, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || !strings.Contains(er.Error, field) {
			t.Errorf("%s: error body %q does not name the field", field, body)
		}
	}
	if n := s.pool.Stats().Executed; n != 0 {
		t.Fatalf("rejected requests ran %d units on the pool", n)
	}
	if n := s.Registry().Counter("serve.solve.rules").Value(); n != 0 {
		t.Fatalf("rejected requests reached the solver %d times", n)
	}

	// The same body without the switch is served, so the check above is
	// not vacuous.
	if status, body := post(`{"corpus":"midend","rule":"bor_band_not_fixed"}`); status != http.StatusOK {
		t.Fatalf("plain request: status %d (%s)", status, body)
	}
	if s.pool.Stats().Executed == 0 {
		t.Fatal("plain request ran no units on the pool")
	}
}

// TestCoalescing is the dedup contract: N concurrent identical requests
// produce exactly one underlying solver invocation (asserted via obs
// counters) and N identical verdicts.
func TestCoalescing(t *testing.T) {
	const n = 6
	s := newTestServer(t, Config{MaxInflight: n})
	release := make(chan struct{})
	s.solveGate = func(ctx context.Context, rule string) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	req := VerifyRequest{Files: testFiles(), Rule: "iadd_base"}
	var wg sync.WaitGroup
	verdicts := make([]*RuleVerdict, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			resp, _, err := s.verifyOne(context.Background(), &r)
			if err != nil {
				errs[i] = err
				return
			}
			verdicts[i] = &resp.Verdict
		}(i)
	}

	// Wait until all n-1 followers have joined the leader's flight, then
	// let it solve.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		joined := int64(0)
		for _, f := range s.flights {
			joined = f.waiters.Load()
		}
		s.mu.Unlock()
		if joined == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("followers joined = %d, want %d", joined, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	reg := s.Registry()
	if got := reg.Counter("serve.solve.rules").Value(); got != 1 {
		t.Fatalf("solve.rules = %d, want exactly 1", got)
	}
	if got := reg.Counter("serve.coalesce.leader").Value(); got != 1 {
		t.Fatalf("coalesce.leader = %d, want 1", got)
	}
	if got := reg.Counter("serve.coalesce.wait").Value(); got != n-1 {
		t.Fatalf("coalesce.wait = %d, want %d", got, n-1)
	}

	// All verdicts identical apart from the coalesced marker: exactly one
	// leader, n-1 coalesced followers.
	leaders := 0
	for i, v := range verdicts {
		if v.Outcome != "success" {
			t.Fatalf("verdict %d outcome = %s", i, v.Outcome)
		}
		if !v.Coalesced {
			leaders++
		}
		a, b := *v, *verdicts[0]
		a.Coalesced, b.Coalesced = false, false
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("verdict %d differs from verdict 0:\n%+v\n%+v", i, a, b)
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want 1", leaders)
	}
}

// TestQueueTimeout: with the pool saturated by a distinct (uncoalescable
// -with) rule, a second rule's request is rejected 429 within the queue
// timeout.
func TestQueueTimeout(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueTimeout: 50 * time.Millisecond})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.solveGate = func(ctx context.Context, rule string) {
		once.Do(func() { close(entered) })
		select {
		case <-release:
		case <-ctx.Done():
		}
	}

	go func() {
		r := VerifyRequest{Files: testFiles(), Rule: "iadd_base"}
		_, _, _ = s.verifyOne(context.Background(), &r)
	}()
	<-entered

	r := VerifyRequest{Files: testFiles(), Rule: "rotr_broken"}
	_, status, err := s.verifyOne(context.Background(), &r)
	if err == nil || status != http.StatusTooManyRequests {
		t.Fatalf("saturated pool: status %d err %v, want 429", status, err)
	}
	if got := s.Registry().Counter("serve.rejected.queue_timeout").Value(); got != 1 {
		t.Fatalf("rejected.queue_timeout = %d, want 1", got)
	}
	close(release)
}

// TestBatch: a batch mixes good and bad items; bad items degrade to
// per-item errors without failing the call.
func TestBatch(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2, QueueTimeout: time.Minute})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	breq := BatchRequest{Requests: []VerifyRequest{
		{Files: testFiles(), Rule: "iadd_base"},
		{Files: testFiles(), Rule: "does_not_exist"},
		{Files: testFiles(), Rule: "rotr_broken"},
	}}
	body, _ := json.Marshal(&breq)
	resp, err := http.Post(ts.URL+"/v1/verify/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var bresp BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&bresp); err != nil {
		t.Fatal(err)
	}
	if len(bresp.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(bresp.Items))
	}
	if bresp.Items[0].Status != "ok" || bresp.Items[0].Verdict.Outcome != "success" {
		t.Fatalf("item 0 = %+v", bresp.Items[0])
	}
	if bresp.Items[1].Status != "error" || bresp.Items[1].Error == "" {
		t.Fatalf("item 1 = %+v, want per-item error", bresp.Items[1])
	}
	if bresp.Items[2].Status != "ok" || bresp.Items[2].Verdict.Outcome != "failure" {
		t.Fatalf("item 2 = %+v", bresp.Items[2])
	}
}
