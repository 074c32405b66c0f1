package difftest

import (
	"math/rand"
	"testing"

	"crocus/internal/sat"
)

// Differential tests for the SAT solver's incremental interface: the
// interleaved AddClause/Solve-under-assumptions histories an SMT session
// produces, where one solver carries its learnt clauses, phases and
// activities from query to query. Every answer is checked against a
// fresh solver given the same clauses at once and against exhaustive
// enumeration.
//
// FuzzInprocess and TestInprocessDiffSeeded keep the names, and the
// corpus under testdata/fuzz/FuzzInprocess/, that they had when the
// solver still had an inprocessing mode; the byte stream decodes into
// the same histories as it did then.

// decodeClause draws one non-empty clause over nv variables. Tautologies
// and duplicate literals are allowed — the solver must cope.
func decodeClause(src Source, nv int) []sat.Lit {
	n := 1 + src.Intn(4)
	cl := make([]sat.Lit, n)
	for i := range cl {
		cl[i] = sat.MkLit(sat.Var(src.Intn(nv)), src.Intn(2) == 1)
	}
	return cl
}

// bruteCNF exhaustively decides the clauses under the assumptions
// (nv <= 14, so at most 16384 assignments).
func bruteCNF(nv int, clauses [][]sat.Lit, assumptions []sat.Lit) sat.Status {
	satisfies := func(bits uint64, cl []sat.Lit) bool {
		for _, l := range cl {
			if (bits>>uint(l.Var())&1 == 1) != l.Neg() {
				return true
			}
		}
		return false
	}
	for bits := uint64(0); bits < uint64(1)<<uint(nv); bits++ {
		ok := true
		for _, a := range assumptions {
			if (bits>>uint(a.Var())&1 == 1) == a.Neg() {
				ok = false
				break
			}
		}
		for _, cl := range clauses {
			if !ok {
				break
			}
			ok = satisfies(bits, cl)
		}
		if ok {
			return sat.Sat
		}
	}
	return sat.Unsat
}

// checkSATModel validates a Sat answer against the clause list and the
// assumptions using Value alone (the public model surface).
func checkSATModel(t *testing.T, s *sat.Solver, clauses [][]sat.Lit, assumptions []sat.Lit, who string) {
	t.Helper()
	holds := func(l sat.Lit) bool { return s.Value(l.Var()) != l.Neg() }
	for _, a := range assumptions {
		if !holds(a) {
			t.Fatalf("%s: model violates assumption %v", who, a)
		}
	}
	for ci, cl := range clauses {
		ok := false
		for _, l := range cl {
			if holds(l) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("%s: model violates clause %d: %v", who, ci, cl)
		}
	}
}

// checkUnsatCore validates an Unsat answer's FinalConflict: it is drawn
// from the assumptions and, by enumeration, is already unsatisfiable
// with the clauses (nil stands for root-level unsatisfiability).
func checkUnsatCore(t *testing.T, s *sat.Solver, nv int, clauses [][]sat.Lit, assumptions []sat.Lit, who string) {
	t.Helper()
	core := s.FinalConflict()
	for _, c := range core {
		found := false
		for _, a := range assumptions {
			if c == a {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("%s: core literal %v not among assumptions %v", who, c, assumptions)
		}
	}
	if bruteCNF(nv, clauses, core) != sat.Unsat {
		t.Fatalf("%s: core %v is satisfiable with the clauses %v", who, core, clauses)
	}
}

// runIncrementalDiff drives one byte-decoded incremental CNF history
// through a single long-lived solver and, at every query, through a
// fresh solver built from the clauses so far, and cross-checks each
// answer against the other solver and against exhaustive enumeration.
func runIncrementalDiff(t *testing.T, src Source) {
	t.Helper()
	nv := 3 + src.Intn(10) // 3..12 variables: always enumerable
	inc := sat.New()
	for i := 0; i < nv; i++ {
		inc.NewVar()
	}

	var clauses [][]sat.Lit
	steps := 1 + src.Intn(4)
	for step := 0; step < steps; step++ {
		for n := 1 + src.Intn(8); n > 0; n-- {
			cl := decodeClause(src, nv)
			clauses = append(clauses, cl)
			// AddClause returns false only once the solver is in a
			// contradictory root state, which enumeration must confirm.
			if !inc.AddClause(cl...) && bruteCNF(nv, clauses, nil) != sat.Unsat {
				t.Fatalf("step %d: AddClause(%v) = false on satisfiable clauses %v", step, cl, clauses)
			}
		}
		var assumptions []sat.Lit
		for n := src.Intn(3); n > 0; n-- {
			assumptions = append(assumptions, sat.MkLit(sat.Var(src.Intn(nv)), src.Intn(2) == 1))
		}
		fresh := sat.New()
		for i := 0; i < nv; i++ {
			fresh.NewVar()
		}
		for _, cl := range clauses {
			fresh.AddClause(cl...)
		}
		got := inc.Solve(assumptions...)
		want := fresh.Solve(assumptions...)
		if got != want {
			t.Fatalf("step %d: Solve(%v) = %v incrementally, %v from scratch\nclauses: %v",
				step, assumptions, got, want, clauses)
		}
		if truth := bruteCNF(nv, clauses, assumptions); got != truth {
			t.Fatalf("step %d: Solve(%v) = %v, enumeration says %v\nclauses: %v",
				step, assumptions, got, truth, clauses)
		}
		switch got {
		case sat.Sat:
			checkSATModel(t, inc, clauses, assumptions, "incremental")
			checkSATModel(t, fresh, clauses, assumptions, "fresh")
		case sat.Unsat:
			checkUnsatCore(t, inc, nv, clauses, assumptions, "incremental")
			checkUnsatCore(t, fresh, nv, clauses, assumptions, "fresh")
		}
	}
}

// FuzzInprocess is the byte-driven form of the incremental differential:
// coverage feedback steers the clause/assumption history shape.
func FuzzInprocess(f *testing.F) {
	f.Add([]byte{0x03, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77})
	f.Add([]byte{0xf0, 0x0f, 0xf0, 0x0f, 0xf0, 0x0f, 0xf0, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		runIncrementalDiff(t, NewByteSource(data))
	})
}

// TestInprocessDiffSeeded is the seeded sweep over the same property, so
// the invariant is exercised on every `go test` run, not only under
// -fuzz.
func TestInprocessDiffSeeded(t *testing.T) {
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		runIncrementalDiff(t, RandSource{R: rand.New(rand.NewSource(7700 + int64(i)))})
	}
}
