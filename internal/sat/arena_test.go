package sat

import (
	"math/rand"
	"slices"
	"testing"
)

// selectWorstReference is the O(n²) partial selection sort that defines
// which clauses reduceDB deletes: each step scans cands[i:] for its first
// maximum and swaps it into slot i. selectWorst must leave the same
// arrangement.
func selectWorstReference(cands []reduceCand, n int) {
	for i := 0; i < n; i++ {
		maxJ := i
		for j := i + 1; j < len(cands); j++ {
			if cands[j].key > cands[maxJ].key {
				maxJ = j
			}
		}
		cands[i], cands[maxJ] = cands[maxJ], cands[i]
	}
}

// TestSelectWorstMatchesSelectionSort: on seeded key vectors drawn from
// few distinct values, so that nearly every step breaks a tie, the
// tournament tree picks the same clauses in the same order as the
// selection sort and leaves every slot as the sort does.
func TestSelectWorstMatchesSelectionSort(t *testing.T) {
	r := rand.New(rand.NewSource(4801))
	for iter := 0; iter < 20000; iter++ {
		m := iter % 4 // lengths 0 to 3 first, then random ones
		if iter >= 4 {
			m = r.Intn(64)
		}
		// Keys look like reduceDB's, LBD*1e6 - activity, over a handful
		// of LBDs and activities.
		lbds := 1 + r.Intn(4)
		acts := 1 + r.Intn(3)
		cands := make([]reduceCand, m)
		for i := range cands {
			cands[i] = reduceCand{clauseRef(i), float64(3+r.Intn(lbds))*1e6 - float64(r.Intn(acts))}
		}
		want := slices.Clone(cands)
		selectWorstReference(want, m/2)
		selectWorst(cands, m/2)
		if !slices.Equal(cands, want) {
			t.Fatalf("iter %d (len %d): selectWorst left\n%v\nthe selection sort left\n%v", iter, m, cands, want)
		}
	}
}

// liveLits counts the literals of the clauses that are not deleted.
func liveLits(s *Solver) int {
	n := 0
	for i := range s.clauses {
		n += int(s.clauses[i].size)
	}
	return n
}

// TestArenaCompaction drives random 3-SAT instances near the threshold
// with a tiny learned-clause limit and inprocessing at every restart, so
// reduceDB and the rounds free literals until the arena compacts. Across
// budgeted solves the arena must stay within twice its live literals; a
// forced compaction must move every live clause's literals without
// changing them; and every answer, before and after, must match brute
// force.
func TestArenaCompaction(t *testing.T) {
	r := rand.New(rand.NewSource(4701))
	const nv, nc = 18, 77
	compactions, forced := 0, 0
	for iter := 0; iter < 30; iter++ {
		s := New()
		aggressive(s)
		s.maxLearn = 10
		for i := 0; i < nv; i++ {
			s.NewVar()
		}
		cnf := make([][]Lit, nc)
		for i := range cnf {
			cnf[i] = make([]Lit, 3)
			for j := range cnf[i] {
				cnf[i][j] = MkLit(Var(r.Intn(nv)), r.Intn(2) == 1)
			}
			s.AddClause(cnf[i]...)
		}
		want := bruteForce(nv, cnf)

		s.SetBudget(300)
		got := Unknown
		for got == Unknown {
			n := len(s.arena)
			got = s.Solve()
			// Nothing but compaction shortens the arena.
			if len(s.arena) < n {
				compactions++
			}
			if live := liveLits(s); len(s.arena) > 2*live {
				t.Fatalf("iter %d: arena holds %d literals for %d live ones", iter, len(s.arena), live)
			}
		}
		if (got == Sat) != want {
			t.Fatalf("iter %d: Solve = %v, brute force sat = %v", iter, got, want)
		}
		if got == Sat {
			checkModel(t, s, cnf)
		}

		shadow := make([][]Lit, len(s.clauses))
		for i := range s.clauses {
			shadow[i] = slices.Clone(s.lits(&s.clauses[i]))
		}
		if s.garbage > 0 {
			forced++
		}
		s.compact()
		if live := liveLits(s); len(s.arena) != live || s.garbage != 0 {
			t.Fatalf("iter %d: compacted arena holds %d literals (%d garbage) for %d live ones", iter, len(s.arena), s.garbage, live)
		}
		for i := range s.clauses {
			if got := s.lits(&s.clauses[i]); !slices.Equal(got, shadow[i]) {
				t.Fatalf("iter %d: clause %d was %v before compaction, %v after", iter, i, shadow[i], got)
			}
		}

		s.SetBudget(0)
		if got = s.Solve(); (got == Sat) != want {
			t.Fatalf("iter %d: after compaction Solve = %v, brute force sat = %v", iter, got, want)
		}
		if got == Sat {
			checkModel(t, s, cnf)
		}
	}
	if compactions == 0 || forced == 0 {
		t.Fatalf("%d solves compacted the arena, %d forced compactions freed garbage", compactions, forced)
	}
	t.Logf("compactions %d forced %d", compactions, forced)
}
