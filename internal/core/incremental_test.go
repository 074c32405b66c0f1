package core_test

// Differential tests of the incremental solve: a unit's session answers
// all of the unit's queries (applicability, distinctness, equivalence)
// over one encoding, keeping learned clauses from query to query. Its
// verdicts must equal those of a one-shot solver per query
// (VerifyInstantiationOneShot, over smt.Check), on every unit the two
// decide.
//
// Comparison semantics: every unit DECIDED by both sides must agree
// exactly: outcome, distinct-models verdict, counterexample presence.
// The concrete counterexample is not compared, because a failing query
// has many models and the two sides search different clause databases.
// A budget exhaustion (OutcomeTimeout) is a resource artifact, not a
// verdict: a query whose cost is near the budget may decide on one side
// and not the other, so a timeout is compatible with anything. A
// coverage floor keeps that escape hatch an edge case, so the parity
// check cannot degenerate into vacuity.

import (
	"testing"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
)

// diffBudget decides every tractable corpus query on either side, while
// the intractable wide mul/div/rem instances blow through it.
const diffBudget = 5_000_000

// bugsBudget is wider: the division-bug counterexample searches are the
// hardest satisfiable queries in the tree.
const bugsBudget = 20_000_000

// oneShotResults decides every unit of prog, in VerifyAll's order, with
// a one-shot solver per query.
func oneShotResults(t *testing.T, v *core.Verifier) []*core.RuleResult {
	t.Helper()
	var out []*core.RuleResult
	for _, r := range v.Prog.Rules {
		rr := &core.RuleResult{Rule: r}
		for _, sig := range v.Sigs(r) {
			io, err := v.VerifyInstantiationOneShot(r, sig)
			if err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			rr.Insts = append(rr.Insts, *io)
		}
		out = append(out, rr)
	}
	return out
}

// diffCorpus verifies prog on unit sessions (a unit-scheduled sweep) and
// with one-shot solvers, and compares verdicts. floorPct is the minimum
// percentage of units both sides must decide: 85 for the main corpora,
// lower for the tiny division-heavy bug corpora whose wide-width
// instantiations are intractable on either side.
func diffCorpus(t *testing.T, prog *isle.Program, distinct bool, budget int64, floorPct int) {
	t.Helper()
	opts := core.Options{
		PropagationBudget: budget,
		DistinctModels:    distinct,
		Parallelism:       4,
	}
	rs, err := core.New(prog, opts).VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	incr := flattenResults(rs)
	fresh := flattenResults(oneShotResults(t, core.New(prog, opts)))
	if len(fresh) != len(incr) {
		t.Fatalf("result count differs: one-shot %d, session %d", len(fresh), len(incr))
	}
	decidedBoth := 0
	for i := range fresh {
		f, n := fresh[i], incr[i]
		if f.name != n.name {
			t.Fatalf("unit order differs at %d: %q vs %q", i, f.name, n.name)
		}
		if f.outcome == core.OutcomeTimeout || n.outcome == core.OutcomeTimeout {
			continue // resource artifact, compatible with anything
		}
		decidedBoth++
		if f.outcome != n.outcome || f.distinct != n.distinct || (f.cex == "") != (n.cex == "") {
			t.Errorf("session and one-shot disagree on %s:\n  one-shot: %v distinct=%q cex=%v\n  session:  %v distinct=%q cex=%v",
				f.name, f.outcome, f.distinct, f.cex != "", n.outcome, n.distinct, n.cex != "")
		}
	}
	t.Logf("%d/%d units decided by both sides", decidedBoth, len(fresh))
	if min := len(fresh) * floorPct / 100; decidedBoth < min {
		t.Errorf("only %d/%d units decided by both sides (floor %d)", decidedBoth, len(fresh), min)
	}
}

func TestIncrementalMatchesFreshAarch64(t *testing.T) {
	skipUnderRace(t)
	prog, err := corpus.LoadAarch64()
	if err != nil {
		t.Fatal(err)
	}
	diffCorpus(t, prog, false, diffBudget, 85)
}

func TestIncrementalMatchesFreshX64(t *testing.T) {
	prog, err := corpus.LoadX64()
	if err != nil {
		t.Fatal(err)
	}
	diffCorpus(t, prog, false, diffBudget, 85)
}

func TestIncrementalMatchesFreshMidend(t *testing.T) {
	prog, err := corpus.LoadMidend()
	if err != nil {
		t.Fatal(err)
	}
	diffCorpus(t, prog, false, diffBudget, 85)
}

// TestIncrementalMatchesFreshDistinctModels covers the §3.2.1 extra
// query, and its counterexample path, on the corpus with known
// distinct-models failures.
func TestIncrementalMatchesFreshDistinctModels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipUnderRace(t)
	prog, err := corpus.LoadAarch64()
	if err != nil {
		t.Fatal(err)
	}
	diffCorpus(t, prog, true, diffBudget, 85)
}

// TestIncrementalMatchesFreshBugs replays every reproduced defect on
// both sides: the counterexamples that reproduce the CVEs must be found
// on unit sessions too.
func TestIncrementalMatchesFreshBugs(t *testing.T) {
	skipUnderRace(t)
	for _, b := range corpus.Bugs() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			prog, err := corpus.LoadBug(b)
			if err != nil {
				t.Fatal(err)
			}
			// Half the division bug corpora's instantiations are
			// wide-division counterexample searches at or beyond any
			// affordable budget on either side, so the floor is 50%.
			diffCorpus(t, prog, b.DistinctModels, bugsBudget, 50)
		})
	}
}
