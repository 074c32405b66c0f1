package serve

import (
	"context"
	"testing"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
)

// diffBudget makes both pipelines deterministic: solver effort is
// bounded by propagation count, not wall clock, so a unit that times out
// locally times out on the server too.
const diffBudget = 5_000_000

// diffCorpus verifies every rule of a seed corpus twice — through a
// local core.Verifier and through the daemon's request path — and
// requires verdict-identical results: same outcome, same counterexample
// presence, same distinct-models verdict and the same SAT counters, per
// instantiation. This is the
// differential guarantee the CI serve-smoke job re-checks end-to-end
// over HTTP. Every request is then sent a second time: the reply must
// come from a replay (no solve, one more serve.replay.rules), carry the
// cached marker on every unit with assignments, and still match the
// local verdict.
func diffCorpus(t *testing.T, corpusName string, load func() (*isle.Program, error)) {
	prog, err := load()
	if err != nil {
		t.Fatal(err)
	}
	local := core.New(prog, core.Options{
		Timeout:           60 * time.Second,
		PropagationBudget: diffBudget,
	})
	s := newTestServer(t, Config{
		Corpora:      []string{corpusName},
		MaxInflight:  2,
		Timeout:      60 * time.Second,
		QueueTimeout: 5 * time.Minute,
	})
	ctx := context.Background()
	solves := s.Registry().Counter("serve.solve.rules")
	replays := s.Registry().Counter("serve.replay.rules")

	for _, rule := range prog.Rules {
		rr, err := local.VerifyRuleContext(ctx, rule)
		if err != nil {
			t.Fatalf("local %s: %v", rule.Name, err)
		}
		req := VerifyRequest{
			Corpus:            corpusName,
			Rule:              rule.Name,
			TimeoutMS:         60_000,
			PropagationBudget: diffBudget,
		}
		resp, status, err := s.verifyOne(ctx, &req)
		if err != nil {
			t.Fatalf("server %s: status %d: %v", rule.Name, status, err)
		}
		diffVerdict(t, rule.Name, resp.Verdict, rr)

		solved, replayed := solves.Value(), replays.Value()
		resp, status, err = s.verifyOne(ctx, &req)
		if err != nil {
			t.Fatalf("server %s, second request: status %d: %v", rule.Name, status, err)
		}
		if got := solves.Value(); got != solved {
			t.Errorf("%s: second request solved (serve.solve.rules %d -> %d)", rule.Name, solved, got)
		}
		if got := replays.Value(); got != replayed+1 {
			t.Errorf("%s: serve.replay.rules %d -> %d, want one replay", rule.Name, replayed, got)
		}
		for i, iv := range resp.Verdict.Insts {
			if iv.Assignments > 0 && !iv.Cached {
				t.Errorf("%s inst %d: replayed unit not marked cached", rule.Name, i)
			}
		}
		diffVerdict(t, rule.Name+" (replay)", resp.Verdict, rr)
	}
}

// diffVerdict compares a server verdict with the local result field by
// field.
func diffVerdict(t *testing.T, name string, sv RuleVerdict, rr *core.RuleResult) {
	t.Helper()
	if want := rr.Outcome().String(); sv.Outcome != want {
		t.Errorf("%s: server outcome %s, local %s", name, sv.Outcome, want)
	}
	if len(sv.Insts) != len(rr.Insts) {
		t.Errorf("%s: server %d insts, local %d", name, len(sv.Insts), len(rr.Insts))
		return
	}
	for i, io := range rr.Insts {
		iv := sv.Insts[i]
		if iv.Outcome != io.Outcome.String() {
			t.Errorf("%s inst %d: server outcome %s, local %s", name, i, iv.Outcome, io.Outcome)
		}
		if (iv.Counterexample != nil) != (io.Counterexample != nil) {
			t.Errorf("%s inst %d: counterexample presence differs (server %v, local %v)",
				name, i, iv.Counterexample != nil, io.Counterexample != nil)
		}
		if iv.Counterexample != nil && io.Counterexample != nil &&
			iv.Counterexample.Rendered != io.Counterexample.Rendered {
			t.Errorf("%s inst %d: rendered counterexamples differ", name, i)
		}
		localSig := ""
		if io.Sig != nil {
			localSig = io.Sig.String()
		}
		if iv.Sig != localSig {
			t.Errorf("%s inst %d: server sig %q, local %q", name, i, iv.Sig, localSig)
		}
		if (iv.DistinctInputs == nil) != (io.DistinctInputs == nil) ||
			(iv.DistinctInputs != nil && *iv.DistinctInputs != *io.DistinctInputs) {
			t.Errorf("%s inst %d: distinct-models verdict differs", name, i)
		}
		if iv.Stats != io.Stats {
			t.Errorf("%s inst %d: server stats %+v, local %+v", name, i, iv.Stats, io.Stats)
		}
	}
}

func TestServerMatchesLocalMidend(t *testing.T) {
	diffCorpus(t, "midend", corpus.LoadMidend)
}

func TestServerMatchesLocalX64(t *testing.T) {
	if testing.Short() {
		t.Skip("full x64 differential sweep in -short mode")
	}
	diffCorpus(t, "x64", corpus.LoadX64)
}
