package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// replayCounts reads how many requests solved and how many replayed.
func replayCounts(s *Server) (solves, replays int64) {
	return s.Registry().Counter("serve.solve.rules").Value(),
		s.Registry().Counter("serve.replay.rules").Value()
}

// verifyOK sends req through the request path and returns its verdict.
func verifyOK(t *testing.T, s *Server, req VerifyRequest) RuleVerdict {
	t.Helper()
	resp, status, err := s.verifyOne(context.Background(), &req)
	if err != nil {
		t.Fatalf("%s: status %d: %v", req.Rule, status, err)
	}
	return resp.Verdict
}

// TestReplayLadderConsistency: the replay index holds fingerprints, not
// verdicts, so a unit a ladder request decided after the base request
// timed out replays as decided, exactly as the full path would return
// it. A per-flight-key verdict cache would keep serving the timeout.
func TestReplayLadderConsistency(t *testing.T) {
	s := newTestServer(t, Config{Corpora: []string{"x64"}, MaxInflight: 2})
	base := VerifyRequest{Corpus: "x64", Rule: "amode_add_reg", PropagationBudget: 200_000}

	if v := verifyOK(t, s, base); v.Outcome != "timeout" {
		t.Fatalf("budget 200k: outcome %s, want timeout", v.Outcome)
	}
	ladder := base
	ladder.RetryBudgets = []int64{5_000_000}
	if v := verifyOK(t, s, ladder); v.Outcome != "success" {
		t.Fatalf("ladder to 5M: outcome %s, want success", v.Outcome)
	}
	if solves, replays := replayCounts(s); solves != 2 || replays != 0 {
		t.Fatalf("after the ladder request: %d solves, %d replays, want 2 and 0", solves, replays)
	}

	v := verifyOK(t, s, base)
	if solves, replays := replayCounts(s); solves != 2 || replays != 1 {
		t.Fatalf("base request again: %d solves, %d replays, want 2 and 1", solves, replays)
	}
	if v.Outcome != "success" {
		t.Fatalf("replayed base request: outcome %s, want the ladder's success", v.Outcome)
	}
	for i, iv := range v.Insts {
		if iv.Outcome != "success" || !iv.Cached {
			t.Fatalf("replayed inst %d: %s cached=%t, want a cached success", i, iv.Outcome, iv.Cached)
		}
	}
}

// TestReplayFallsBackOnMiss: an index entry whose key misses the vcache
// sends the request down the full path, which solves once, returns the
// right verdict and stores the unit's true key for the next replay.
func TestReplayFallsBackOnMiss(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	req := VerifyRequest{Corpus: "midend", Rule: "bor_band_not_fixed"}
	missing := strings.Repeat("0", 64)
	s.mu.Lock()
	// One key per instantiation (the rule has four), so only the vcache
	// lookup can refuse the replay.
	s.unitKeys[flightKey("midend", s.cfg.Timeout, &req)] = []string{missing, missing, missing, missing}
	s.mu.Unlock()

	for i, want := range []struct {
		solves, replays int64
		cached          bool
	}{{1, 0, false}, {1, 1, true}} {
		v := verifyOK(t, s, req)
		if solves, replays := replayCounts(s); solves != want.solves || replays != want.replays {
			t.Fatalf("request %d: %d solves, %d replays, want %d and %d",
				i, solves, replays, want.solves, want.replays)
		}
		if v.Outcome != "success" || len(v.Insts) != 4 {
			t.Fatalf("request %d: verdict %+v, want success over 4 instantiations", i, v)
		}
		for j, iv := range v.Insts {
			if iv.Cached != want.cached {
				t.Fatalf("request %d inst %d: cached=%t, want %t", i, j, iv.Cached, want.cached)
			}
		}
	}
}

// TestReplayTakesNoSlot: a replay solves nothing, so it needs no worker
// slot. With a one-slot server's slot held, a verified rule is answered
// at once while a rule not yet verified waits out the queue timeout.
func TestReplayTakesNoSlot(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1, QueueTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	verified := &VerifyRequest{Files: testFiles(), Rule: "iadd_base"}
	if resp, body := postVerify(t, ts.URL, verified); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: status %d: %s", resp.StatusCode, body)
	}
	holdSlot(t, s)

	if resp, body := postVerify(t, ts.URL, verified); resp.StatusCode != http.StatusOK {
		t.Fatalf("verified rule behind a held slot: status %d: %s", resp.StatusCode, body)
	}
	if _, replays := replayCounts(s); replays != 1 {
		t.Fatalf("serve.replay.rules = %d, want 1", replays)
	}
	resp, _ := postVerify(t, ts.URL, &VerifyRequest{Files: testFiles(), Rule: "rotr_broken"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("unverified rule behind a held slot: status %d, want 429", resp.StatusCode)
	}
}

// TestReplayInlineEdit: an edit to inline sources is a new program
// identity, so a request for the edited rule takes the full path and
// returns the edited rule's verdict instead of replaying the original's.
func TestReplayInlineEdit(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	orig := VerifyRequest{Files: testFiles(), Rule: "iadd_base"}
	edited := orig
	edited.Files = testFiles()
	edited.Files[1].Src = strings.Replace(edited.Files[1].Src,
		"(a64_add ty x y))", "(a64_rotr_64 x y))", 1)

	for i, tc := range []struct {
		req             VerifyRequest
		want            string
		solves, replays int64
	}{
		{orig, "success", 1, 0},
		{edited, "failure", 2, 0},
		{orig, "success", 2, 1},
		{edited, "failure", 2, 2},
	} {
		v := verifyOK(t, s, tc.req)
		if v.Outcome != tc.want {
			t.Fatalf("request %d: outcome %s, want %s", i, v.Outcome, tc.want)
		}
		if solves, replays := replayCounts(s); solves != tc.solves || replays != tc.replays {
			t.Fatalf("request %d: %d solves, %d replays, want %d and %d",
				i, solves, replays, tc.solves, tc.replays)
		}
	}
}

// TestReplayConcurrent: requests for a verified rule replay while
// requests for another rule solve and record its keys concurrently (run
// with -race). Every reply carries its rule's verdict.
func TestReplayConcurrent(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	verified := VerifyRequest{Files: testFiles(), Rule: "iadd_base"}
	verifyOK(t, s, verified)

	const n = 6
	fresh := verified
	fresh.Rule = "rotr_broken"
	want := map[string]string{"iadd_base": "success", "rotr_broken": "failure"}
	var wg sync.WaitGroup
	for i := 0; i < 2*n; i++ {
		req := verified
		if i%2 == 1 {
			req = fresh
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, status, err := s.verifyOne(context.Background(), &req)
			if err != nil {
				t.Errorf("%s: status %d: %v", req.Rule, status, err)
				return
			}
			if got := resp.Verdict.Outcome; got != want[req.Rule] {
				t.Errorf("%s: outcome %s, want %s", req.Rule, got, want[req.Rule])
			}
		}()
	}
	wg.Wait()
	if solves, replays := replayCounts(s); solves < 2 || replays < n {
		t.Fatalf("%d solves, %d replays, want at least 2 and %d", solves, replays, n)
	}
}
