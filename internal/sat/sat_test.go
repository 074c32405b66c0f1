package sat

import (
	"math/rand"
	"testing"
	"time"
)

func TestTrivialSat(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	if s.Value(a) {
		t.Fatal("a should be false")
	}
	if !s.Value(b) {
		t.Fatal("b should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if ok := s.AddClause(MkLit(a, true)); ok {
		t.Fatal("AddClause should report root conflict")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if ok := s.AddClause(); ok {
		t.Fatal("empty clause should be unsat")
	}
	if s.Solve() != Unsat {
		t.Fatal("expected unsat")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatal("tautology should be satisfied trivially")
	}
	if s.Solve() != Sat {
		t.Fatal("expected sat")
	}
}

func TestLitHelpers(t *testing.T) {
	l := MkLit(3, true)
	if l.Var() != 3 || !l.Neg() {
		t.Fatalf("lit = %v", l)
	}
	if l.Not().Neg() || l.Not().Var() != 3 {
		t.Fatalf("not = %v", l.Not())
	}
}

// pigeonhole encodes PHP(pigeons, holes), unsatisfiable when there are
// more pigeons than holes, and returns its clauses.
func pigeonhole(s *Solver, pigeons, holes int) [][]Lit {
	vars := make([][]Var, pigeons)
	for p := range vars {
		vars[p] = make([]Var, holes)
		for h := range vars[p] {
			vars[p][h] = s.NewVar()
		}
	}
	var cnf [][]Lit
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		cnf = append(cnf, lits)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				cnf = append(cnf, []Lit{MkLit(vars[p1][h], true), MkLit(vars[p2][h], true)})
			}
		}
	}
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	return cnf
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5) = %v, want sat", got)
	}
}

// bruteForce decides a small CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m>>uint(l.Var())&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func checkModel(t *testing.T, s *Solver, cnf [][]Lit) {
	t.Helper()
	for _, cl := range cnf {
		sat := false
		for _, l := range cl {
			val := s.Value(l.Var())
			if l.Neg() {
				val = !val
			}
			if val {
				sat = true
				break
			}
		}
		if !sat {
			t.Fatalf("model does not satisfy clause %v", cl)
		}
	}
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nVars := 3 + r.Intn(10)
		nClauses := 1 + r.Intn(5*nVars)
		cnf := make([][]Lit, nClauses)
		for i := range cnf {
			k := 1 + r.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(Var(r.Intn(nVars)), r.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		rootOK := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				rootOK = false
			}
		}
		got := s.Solve()
		want := bruteForce(nVars, cnf)
		if want && (got != Sat || !rootOK && got == Sat) {
			t.Fatalf("iter %d: solver=%v rootOK=%v, brute force says SAT\ncnf=%v", iter, got, rootOK, cnf)
		}
		if !want && got != Unsat {
			t.Fatalf("iter %d: solver=%v, brute force says UNSAT\ncnf=%v", iter, got, cnf)
		}
		if got == Sat {
			checkModel(t, s, cnf)
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a := s.NewVar()
	b := s.NewVar()
	c := s.NewVar()
	// a -> b, b -> c
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))

	if got := s.Solve(MkLit(a, false)); got != Sat {
		t.Fatalf("assume a: %v", got)
	}
	if !s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Fatal("expected a,b,c all true under assumption a")
	}
	// Assume a and ¬c: contradiction.
	if got := s.Solve(MkLit(a, false), MkLit(c, true)); got != Unsat {
		t.Fatalf("assume a,¬c: %v", got)
	}
	// Solver remains usable: no assumptions is still sat.
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions: %v", got)
	}
}

func TestIncrementalReuse(t *testing.T) {
	s := New()
	vars := make([]Var, 6)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(MkLit(vars[0], false), MkLit(vars[1], false))
	if s.Solve() != Sat {
		t.Fatal("first solve")
	}
	// Add a constraint after solving and solve again.
	s.AddClause(MkLit(vars[0], true))
	s.AddClause(MkLit(vars[1], true), MkLit(vars[2], false))
	if s.Solve() != Sat {
		t.Fatal("second solve")
	}
	if s.Value(vars[0]) {
		t.Fatal("v0 must be false now")
	}
}

func TestBudgetReturnsUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.SetBudget(100)
	if got := s.Solve(); got != Unknown {
		t.Fatalf("budgeted solve = %v, want unknown", got)
	}
	// Removing the budget allows completion.
	s.SetBudget(0)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unbudgeted solve = %v, want unsat", got)
	}
}

func TestDeadlineReturnsUnknown(t *testing.T) {
	s := New()
	pigeonhole(s, 11, 10)
	s.SetDeadline(time.Now().Add(time.Millisecond))
	got := s.Solve()
	if got == Sat {
		t.Fatalf("PHP cannot be sat, got %v", got)
	}
	// Either it finished very fast (Unsat) or hit the deadline (Unknown);
	// both are acceptable, but on this size Unknown is expected.
	s.SetDeadline(time.Time{})
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "sat" || Unsat.String() != "unsat" || Unknown.String() != "unknown" {
		t.Fatal("status strings")
	}
}

func TestStatsAndCounts(t *testing.T) {
	s := New()
	pigeonhole(s, 4, 3)
	if s.NumVars() != 12 {
		t.Fatalf("NumVars = %d", s.NumVars())
	}
	if s.NumClauses() == 0 {
		t.Fatal("expected clauses")
	}
	s.Solve()
	p, c, d := s.Stats()
	if p == 0 || c == 0 || d == 0 {
		t.Fatalf("stats = %d %d %d", p, c, d)
	}
}

func TestManyRestartsLargeRandomSat(t *testing.T) {
	// A large under-constrained instance: must be found SAT and the model
	// must check.
	r := rand.New(rand.NewSource(7))
	nVars := 300
	var cnf [][]Lit
	s := New()
	for i := 0; i < nVars; i++ {
		s.NewVar()
	}
	for i := 0; i < 900; i++ {
		cl := make([]Lit, 3)
		for j := range cl {
			cl[j] = MkLit(Var(r.Intn(nVars)), r.Intn(2) == 1)
		}
		cnf = append(cnf, cl)
		s.AddClause(cl...)
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v", got)
	}
	checkModel(t, s, cnf)
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
