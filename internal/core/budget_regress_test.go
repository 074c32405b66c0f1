package core_test

// Corpus-level verdict regression pins (ISSUE 8 acceptance). Under a
// propagation budget the whole sweep is machine-independent — budgets
// count solver propagations, never the wall clock — so the exact
// per-outcome counts on the embedded corpora are reproducible constants.
// Pinning them catches two distinct regressions: a soundness bug that
// flips a decided verdict, and a solver/encoding regression that pushes
// previously-decided units back over the budget (the timeout count is
// the acceptance metric the inprocessing + structural-hashing work
// moves).
//
// If an intentional engine change shifts these numbers, re-derive them
// with the sweep below and update the pins in the same commit — the
// point is that they never move silently.

import (
	"fmt"
	"sort"
	"testing"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
)

// regressBudget is the deterministic budget the pins below were derived
// under. Large enough that the easy bulk of both corpora decides, small
// enough that the division-heavy tail still times out (so the pin
// actually guards the timeout count).
const regressBudget = 50_000

func sweepOutcomes(t *testing.T, prog *isle.Program, opts core.Options) (map[string]int, []unitVerdict) {
	t.Helper()
	v := core.New(prog, opts)
	rs, err := v.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, rr := range rs {
		for _, io := range rr.Insts {
			counts[io.Outcome.String()]++
		}
	}
	return counts, flattenResults(rs)
}

func countsString(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%s:%d ", k, m[k])
	}
	return s
}

func testBudgetedOutcomes(t *testing.T, load func() (*isle.Program, error), want map[string]int) {
	prog, err := load()
	if err != nil {
		t.Fatal(err)
	}
	got, pinned := sweepOutcomes(t, prog, core.Options{
		PropagationBudget: regressBudget,
		Parallelism:       4,
	})
	for k, w := range want {
		if got[k] != w {
			t.Errorf("outcome %s: got %d, want %d (full counts: %s)", k, got[k], w, countsString(got))
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected outcome class %s (full counts: %s)", k, countsString(got))
		}
	}

	// The same sweep with inprocessing and structural hashing disabled
	// must agree on every decided verdict: the knobs tune solver effort,
	// never meaning. Budget-boundary units may legitimately flip between
	// decided and timeout (the encodings differ, so the same budget buys
	// a different amount of search), so timeout is compatible with
	// anything — exactly the bench artifact's comparison rule.
	_, plain := sweepOutcomes(t, prog, core.Options{
		PropagationBudget: regressBudget,
		Parallelism:       4,
		NoInprocess:       true,
		NoStructHash:      true,
	})
	if len(plain) != len(pinned) {
		t.Fatalf("unit count differs: %d with engine opts, %d without", len(pinned), len(plain))
	}
	for i := range pinned {
		a, b := pinned[i], plain[i]
		if a.outcome != b.outcome && a.outcome != core.OutcomeTimeout && b.outcome != core.OutcomeTimeout {
			t.Errorf("decided verdicts diverge on %s: %v with engine opts, %v without",
				a.name, a.outcome, b.outcome)
		}
	}
}

func TestBudgetedOutcomesAarch64(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	testBudgetedOutcomes(t, corpus.LoadAarch64, map[string]int{
		"failure":      4,
		"inapplicable": 108,
		"success":      247,
		"timeout":      22,
	})
}

func TestBudgetedOutcomesX64(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	testBudgetedOutcomes(t, corpus.LoadX64, map[string]int{
		"inapplicable": 19,
		"success":      62,
		"timeout":      3,
	})
}
