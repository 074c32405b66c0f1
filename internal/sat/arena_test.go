package sat

import (
	"fmt"
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

// compactChecked forces a compaction and checks that it leaves exactly
// the live literals in the arena and every clause's literals unchanged.
func compactChecked(t *testing.T, s *Solver, name string) {
	t.Helper()
	shadow := make([][]Lit, len(s.clauses))
	for i := range s.clauses {
		shadow[i] = slices.Clone(s.lits(&s.clauses[i]))
	}
	s.compact()
	if live := liveLits(s); len(s.arena) != live || s.garbage != 0 {
		t.Fatalf("%s: compacted arena holds %d literals (%d garbage) for %d live ones", name, len(s.arena), s.garbage, live)
	}
	for i := range s.clauses {
		if got := s.lits(&s.clauses[i]); !slices.Equal(got, shadow[i]) {
			t.Fatalf("%s: clause %d was %v before compaction, %v after", name, i, shadow[i], got)
		}
	}
}

// TestArenaCompaction drives pigeonhole instances with a tiny
// learned-clause limit through budgeted solves, so reduceDB frees
// literals until the arena compacts. After every solve the arena must
// hold at most twice its live literals, and whenever it holds garbage a
// forced compaction must move every clause's literals without changing
// them. Every answer, budgeted and then unbudgeted, must be right:
// PHP(n+1,n) is Unsat, and PHP(n,n) is Sat with a model that satisfies
// its clauses.
func TestArenaCompaction(t *testing.T) {
	compactions, forced := 0, 0
	for _, tc := range []struct {
		pigeons, holes int
		want           Status
	}{
		{7, 6, Unsat},
		{8, 7, Unsat},
		{6, 6, Sat},
		{8, 8, Sat},
	} {
		name := fmt.Sprintf("PHP(%d,%d)", tc.pigeons, tc.holes)
		s := New()
		s.maxLearn = 10
		cnf := pigeonhole(s, tc.pigeons, tc.holes)

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
				t.Fatalf("%s: arena holds %d literals for %d live ones", name, len(s.arena), live)
			}
			if s.garbage > 0 {
				forced++
				compactChecked(t, s, name)
			}
		}
		if got != tc.want {
			t.Fatalf("%s: Solve = %v, want %v", name, got, tc.want)
		}
		if got == Sat {
			checkModel(t, s, cnf)
		}

		s.SetBudget(0)
		if got = s.Solve(); got != tc.want {
			t.Fatalf("%s: unbudgeted Solve = %v, want %v", name, got, tc.want)
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
