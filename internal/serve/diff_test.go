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
// over HTTP.
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
		sv := resp.Verdict

		if want := rr.Outcome().String(); sv.Outcome != want {
			t.Errorf("%s: server outcome %s, local %s", rule.Name, sv.Outcome, want)
		}
		if len(sv.Insts) != len(rr.Insts) {
			t.Errorf("%s: server %d insts, local %d", rule.Name, len(sv.Insts), len(rr.Insts))
			continue
		}
		for i, io := range rr.Insts {
			iv := sv.Insts[i]
			if iv.Outcome != io.Outcome.String() {
				t.Errorf("%s inst %d: server outcome %s, local %s", rule.Name, i, iv.Outcome, io.Outcome)
			}
			if (iv.Counterexample != nil) != (io.Counterexample != nil) {
				t.Errorf("%s inst %d: counterexample presence differs (server %v, local %v)",
					rule.Name, i, iv.Counterexample != nil, io.Counterexample != nil)
			}
			if iv.Counterexample != nil && io.Counterexample != nil &&
				iv.Counterexample.Rendered != io.Counterexample.Rendered {
				t.Errorf("%s inst %d: rendered counterexamples differ", rule.Name, i)
			}
			localSig := ""
			if io.Sig != nil {
				localSig = io.Sig.String()
			}
			if iv.Sig != localSig {
				t.Errorf("%s inst %d: server sig %q, local %q", rule.Name, i, iv.Sig, localSig)
			}
			if (iv.DistinctInputs == nil) != (io.DistinctInputs == nil) ||
				(iv.DistinctInputs != nil && *iv.DistinctInputs != *io.DistinctInputs) {
				t.Errorf("%s inst %d: distinct-models verdict differs", rule.Name, i)
			}
			if iv.Stats != io.Stats {
				t.Errorf("%s inst %d: server stats %+v, local %+v", rule.Name, i, iv.Stats, io.Stats)
			}
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
