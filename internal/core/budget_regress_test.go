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
	"slices"
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

func sweepOutcomes(t *testing.T, prog *isle.Program, opts core.Options) (map[string]int, []unitVerdict, []*core.RuleResult) {
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
	return counts, flattenResults(rs), rs
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
	got, pinned, _ := sweepOutcomes(t, prog, core.Options{
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
	// anything.
	_, plain, _ := sweepOutcomes(t, prog, core.Options{
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

// testReduceDBSearch sweeps prog at reduceBudget, with the custom
// verification conditions when custom is not nil, and pins the outcome
// counts and the SAT work summed over every unit. A change to which
// learned clauses reduction deletes moves the sums even when no verdict
// flips. Exact key ties are rare on these corpora, so tie-breaking is
// pinned at the sat level (TestSelectWorstMatchesSelectionSort). The
// sweep's hardness profile is returned; its per-rule stats must add up
// to the same sums.
func testReduceDBSearch(t *testing.T, prog *isle.Program, custom map[string]*core.CustomVC, want map[string]int, wantStats core.SolverStats) *core.HardnessProfile {
	t.Helper()
	got, units, rs := sweepOutcomes(t, prog, core.Options{
		PropagationBudget: reduceBudget,
		Parallelism:       2,
		Custom:            custom,
	})
	if countsString(got) != countsString(want) {
		t.Errorf("outcomes: got %s, want %s", countsString(got), countsString(want))
	}
	var sum, profSum core.SolverStats
	for _, u := range units {
		sum.Add(u.stats)
	}
	prof := core.ProfileRules(rs)
	for _, h := range prof.Rules {
		profSum.Add(h.SolverStats)
	}
	if profSum != sum {
		t.Errorf("hardness profile folds %s restarts=%d, the units sum to %s restarts=%d",
			profSum, profSum.Restarts, sum, sum.Restarts)
	}
	// Queries and structural-hashing merges depend on the front end, not
	// on the search.
	sum.Queries, sum.StructHashMerged = 0, 0
	if sum != wantStats {
		t.Errorf("summed SAT work:\n  got  %s restarts=%d\n  want %s restarts=%d",
			sum, sum.Restarts, wantStats, wantStats.Restarts)
	}
	return prof
}

func TestReduceDBSearchX64(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	prog, err := corpus.LoadX64()
	if err != nil {
		t.Fatal(err)
	}
	testReduceDBSearch(t, prog, nil, map[string]int{
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
	testReduceDBSearch(t, prog, nil, map[string]int{
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

// TestReduceDBSearchAarch64 pins the aarch64 sweep with the custom
// verification conditions, the one HARDNESS_pr10.json profiles: its
// timeout tail is the nine div/rem/rotl rules.
func TestReduceDBSearchAarch64(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus sweep")
	}
	prog, err := corpus.LoadAarch64()
	if err != nil {
		t.Fatal(err)
	}
	prof := testReduceDBSearch(t, prog, corpus.CustomVCs(), map[string]int{
		"inapplicable": 108,
		"success":      256,
		"timeout":      17,
	}, core.SolverStats{
		Propagations: 7985284,
		Conflicts:    36122,
		Decisions:    299328,
		Restarts:     180,
		ElimVars:     302,
	})
	got := slices.Clone(prof.TimeoutRules)
	want := []string{"urem_fits32", "srem_fits32", "udiv_fits32", "udiv_const_fits32",
		"sdiv_fits32", "urem_64", "sdiv_const_fits32", "srem_64", "rotl_64"}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("timeout rules: got %v, want %v", got, want)
	}
}
