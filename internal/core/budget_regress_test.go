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

// reduceBudget is large enough that the x64 sweep's hard units learn
// past the solver's learned-clause limit, so clause-database reduction
// runs and its choice of which clauses to delete shapes the search. At
// regressBudget it never runs, so the pins above do not guard it.
const reduceBudget = 400_000

// testReduceDBSearch sweeps prog at reduceBudget and pins the outcome
// counts and the SAT work summed over every unit. A change to which
// learned clauses reduction deletes moves the sums even when no verdict
// flips. Exact key ties are rare on these corpora, so tie-breaking is
// pinned at the sat level (TestSelectWorstMatchesSelectionSort).
func testReduceDBSearch(t *testing.T, prog *isle.Program, want map[string]int, wantStats core.SolverStats) {
	t.Helper()
	got, units := sweepOutcomes(t, prog, core.Options{
		PropagationBudget: reduceBudget,
		Parallelism:       2,
	})
	if countsString(got) != countsString(want) {
		t.Errorf("outcomes: got %s, want %s", countsString(got), countsString(want))
	}
	var sum core.SolverStats
	for _, u := range units {
		sum.Add(u.stats)
	}
	// Queries and structural-hashing merges depend on the front end, not
	// on the search.
	sum.Queries, sum.StructHashMerged = 0, 0
	if sum != wantStats {
		t.Errorf("summed SAT work:\n  got  %s restarts=%d\n  want %s restarts=%d",
			sum, sum.Restarts, wantStats, wantStats.Restarts)
	}
}

func TestReduceDBSearchX64(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	prog, err := corpus.LoadX64()
	if err != nil {
		t.Fatal(err)
	}
	testReduceDBSearch(t, prog, map[string]int{
		"inapplicable": 19,
		"success":      63,
		"timeout":      2,
	}, core.SolverStats{
		Propagations: 1140194,
		Conflicts:    45043,
		Decisions:    149219,
		Restarts:     153,
		ElimVars:     692,
		Subsumed:     275,
	})
}

func TestReduceDBSearchAmodeCVE(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	var bug corpus.Bug
	for _, b := range corpus.Bugs() {
		if b.ID == "amode_cve" {
			bug = b
		}
	}
	prog, err := corpus.LoadBug(bug)
	if err != nil {
		t.Fatal(err)
	}
	testReduceDBSearch(t, prog, map[string]int{
		"failure":      3,
		"inapplicable": 19,
		"success":      63,
		"timeout":      3,
	}, core.SolverStats{
		Propagations: 1593486,
		Conflicts:    60629,
		Decisions:    206457,
		Restarts:     205,
		ElimVars:     1161,
		Subsumed:     418,
	})
}
