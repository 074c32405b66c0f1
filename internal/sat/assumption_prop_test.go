package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// Randomized property tests for the incremental and assumption
// plumbing, complementing the hand-crafted instances in
// incremental_test.go: the invariants must hold on arbitrary CNF, not
// just the shapes we thought of.

// randCNF adds a random 3-CNF instance over nv fresh variables and
// returns the clauses (as literal slices) plus the first new variable.
func randCNF(s *Solver, r *rand.Rand, nv, nc int) ([][]Lit, Var) {
	first := Var(s.NumVars())
	vars := make([]Var, nv)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	var clauses [][]Lit
	for i := 0; i < nc; i++ {
		n := 1 + r.Intn(3)
		lits := make([]Lit, 0, n)
		for j := 0; j < n; j++ {
			lits = append(lits, MkLit(vars[r.Intn(nv)], r.Intn(2) == 0))
		}
		clauses = append(clauses, lits)
		s.AddClause(lits...)
	}
	return clauses, first
}

// satisfies reports whether the solver's current model satisfies every
// clause in the list.
func satisfies(s *Solver, clauses [][]Lit) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			if s.Value(l.Var()) != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// bruteSatUnder is bruteForce with assumption literals conjoined.
func bruteSatUnder(clauses [][]Lit, nv int, assumps []Lit) bool {
	all := clauses
	for _, a := range assumps {
		all = append(all[:len(all):len(all)], []Lit{a})
	}
	return bruteForce(nv, all)
}

// TestIncrementalAgainstBruteForce: interleaved AddClause/Solve
// sequences, the shape the SMT session produces, match exhaustive
// enumeration at every step, and every Sat model satisfies all the
// clauses added so far.
func TestIncrementalAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4402))
	for iter := 0; iter < 150; iter++ {
		s := New()
		nv := 4 + r.Intn(8)
		all, _ := randCNF(s, r, nv, 1+r.Intn(2*nv))
		for step := 0; step < 4; step++ {
			want := bruteForce(nv, all)
			got := s.Solve()
			if (got == Sat) != want || got == Unknown {
				t.Fatalf("iter %d step %d: Solve = %v, brute = %v", iter, step, got, want)
			}
			if got == Sat && !satisfies(s, all) {
				t.Fatalf("iter %d step %d: model violates the clauses", iter, step)
			}
			if !want {
				break
			}
			// Grow the instance over the same variables.
			n := 1 + r.Intn(3)
			lits := make([]Lit, 0, n)
			for j := 0; j < n; j++ {
				lits = append(lits, MkLit(Var(r.Intn(nv)), r.Intn(2) == 0))
			}
			all = append(all, lits)
			s.AddClause(lits...)
		}
	}
}

// TestAssumptionsAgainstBruteForce: several assumption solves on one
// solver match enumeration under the assumptions, every Sat model
// satisfies the clauses and the assumptions, and every FinalConflict is
// a subset of the assumptions.
func TestAssumptionsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(4403))
	for iter := 0; iter < 150; iter++ {
		s := New()
		nv := 4 + r.Intn(8)
		clauses, _ := randCNF(s, r, nv, 1+r.Intn(3*nv))
		for q := 0; q < 3; q++ {
			na := r.Intn(3)
			assumps := make([]Lit, 0, na)
			for j := 0; j < na; j++ {
				assumps = append(assumps, MkLit(Var(r.Intn(nv)), r.Intn(2) == 0))
			}
			want := bruteSatUnder(clauses, nv, assumps)
			got := s.Solve(assumps...)
			if (got == Sat) != want || got == Unknown {
				t.Fatalf("iter %d q %d assumps %v: Solve = %v, brute = %v",
					iter, q, assumps, got, want)
			}
			if got == Sat {
				if !satisfies(s, clauses) {
					t.Fatalf("iter %d q %d: model violates the clauses", iter, q)
				}
				for _, a := range assumps {
					if s.Value(a.Var()) == a.Neg() {
						t.Fatalf("iter %d q %d: model violates assumption %v", iter, q, a)
					}
				}
			}
			if got == Unsat {
				for _, c := range s.FinalConflict() {
					if !slices.Contains(assumps, c) {
						t.Fatalf("iter %d q %d: core literal %v not among assumptions %v",
							iter, q, c, assumps)
					}
				}
			}
		}
	}
}

// TestFinalConflictSubsetRandom: across random instances and random
// assumption sets, every non-nil FinalConflict is (a) a subset of the
// assumptions passed to Solve, (b) jointly unsatisfiable on its own, and
// (c) cleared by a subsequent Sat solve.
func TestFinalConflictSubsetRandom(t *testing.T) {
	r := rand.New(rand.NewSource(9301))
	cores := 0
	for iter := 0; iter < 200; iter++ {
		s := New()
		nv := 4 + r.Intn(8)
		_, first := randCNF(s, r, nv, 3+r.Intn(4*nv))
		na := 1 + r.Intn(nv)
		assumed := map[Lit]bool{}
		var assumptions []Lit
		for i := 0; i < na; i++ {
			l := MkLit(first+Var(r.Intn(nv)), r.Intn(2) == 0)
			if !assumed[l] && !assumed[l.Not()] {
				assumed[l] = true
				assumptions = append(assumptions, l)
			}
		}
		res := s.Solve(assumptions...)
		if res != Unsat {
			if s.FinalConflict() != nil {
				t.Fatalf("iter %d: FinalConflict non-nil after %v solve", iter, res)
			}
			continue
		}
		core := s.FinalConflict()
		if core == nil {
			// Root-level unsat: must stay unsat with no assumptions at all.
			if got := s.Solve(); got != Unsat {
				t.Fatalf("iter %d: nil core but formula sat without assumptions", iter)
			}
			continue
		}
		cores++
		seen := map[Lit]bool{}
		for _, l := range core {
			if !assumed[l] {
				t.Fatalf("iter %d: core literal %v was never assumed (assumptions %v)",
					iter, l, assumptions)
			}
			if seen[l] {
				t.Fatalf("iter %d: core %v contains duplicate literal %v", iter, core, l)
			}
			seen[l] = true
		}
		// The core alone must reproduce the conflict.
		if got := s.Solve(core...); got != Unsat {
			t.Fatalf("iter %d: solve(core %v) = %v, want unsat", iter, core, got)
		}
	}
	if cores == 0 {
		t.Fatal("generator never produced an assumption-unsat instance; property untested")
	}
}

// TestLastStatsMonotoneDeltas: over a sequence of solves on one solver,
// every LastStats delta is non-negative and the cumulative Stats counters
// always equal the post-setup baseline (clause addition propagates at
// root level, outside any Solve) plus the running sum of deltas.
func TestLastStatsMonotoneDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(40902))
	s := New()
	clauses, first := randCNF(s, r, 12, 40)
	sumP, sumC, sumD := s.Stats()
	for call := 0; call < 20; call++ {
		var assumptions []Lit
		for i := 0; i < r.Intn(4); i++ {
			assumptions = append(assumptions, MkLit(first+Var(r.Intn(12)), r.Intn(2) == 0))
		}
		res := s.Solve(assumptions...)
		p, c, d := s.LastStats()
		if p < 0 || c < 0 || d < 0 {
			t.Fatalf("call %d: negative delta (%d,%d,%d)", call, p, c, d)
		}
		sumP, sumC, sumD = sumP+p, sumC+c, sumD+d
		cp, cc, cd := s.Stats()
		if cp != sumP || cc != sumC || cd != sumD {
			t.Fatalf("call %d: Stats (%d,%d,%d) != sum of LastStats deltas (%d,%d,%d)",
				call, cp, cc, cd, sumP, sumC, sumD)
		}
		if res == Sat && len(assumptions) == 0 && !satisfies(s, clauses) {
			t.Fatalf("call %d: Sat model does not satisfy the clauses", call)
		}
	}
}

// TestPrioritizeVarsFromAnswerPreserving: branching-order hints must
// never change the verdict. Identical instances are solved with and
// without prioritization, and Sat models are checked against the CNF.
func TestPrioritizeVarsFromAnswerPreserving(t *testing.T) {
	r := rand.New(rand.NewSource(77031))
	sat, unsat := 0, 0
	for iter := 0; iter < 120; iter++ {
		seed := r.Int63()
		build := func() (*Solver, [][]Lit, Var) {
			rr := rand.New(rand.NewSource(seed))
			s := New()
			nv := 5 + rr.Intn(8)
			clauses, first := randCNF(s, rr, nv, 4*nv)
			return s, clauses, first
		}
		plain, clauses, _ := build()
		want := plain.Solve()

		hinted, hclauses, first := build()
		// Prioritize a random suffix of the variables, possibly empty.
		hinted.PrioritizeVarsFrom(first + Var(r.Intn(hinted.NumVars()-int(first)+1)))
		got := hinted.Solve()
		if got != want {
			t.Fatalf("iter %d: PrioritizeVarsFrom changed verdict %v -> %v", iter, want, got)
		}
		switch got {
		case Sat:
			sat++
			if !satisfies(plain, clauses) || !satisfies(hinted, hclauses) {
				t.Fatalf("iter %d: Sat model fails the CNF", iter)
			}
		case Unsat:
			unsat++
		default:
			t.Fatalf("iter %d: unexpected verdict %v without a budget", iter, got)
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("want both verdicts exercised, got sat=%d unsat=%d", sat, unsat)
	}
}
