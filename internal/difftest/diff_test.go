package difftest

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"crocus/internal/smt"
)

// queryBudget picks how many random queries the matrix test runs:
// 10_000 by default (the acceptance bar), a few hundred under -short,
// and whatever DIFFTEST_QUERIES says when set (0 disables).
func queryBudget(t *testing.T) int {
	if s := os.Getenv("DIFFTEST_QUERIES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad DIFFTEST_QUERIES=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 400
	}
	return 10000
}

// runMatrix drives n queries in batches through the full configuration
// matrix, shrinking and reporting the first disagreement. Batch bi owns
// its builder and seed+bi, so batches are independent and run on
// GOMAXPROCS goroutines. Workers take batches in index order and stop
// past the lowest failing one, so every lower batch is checked and the
// report names the batch a serial run would have stopped at.
func runMatrix(t *testing.T, n int, seed int64, defHeavy bool) {
	t.Helper()
	configs := Matrix()
	const batchSize = 25
	nb := (n + batchSize - 1) / batchSize
	var (
		next   atomic.Int64
		mu     sync.Mutex
		first  = nb // lowest failing batch so far
		failed *Batch
		diff   *Disagreement
		wg     sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				bi := int(next.Add(1) - 1)
				mu.Lock()
				stop := bi >= first
				mu.Unlock()
				if stop {
					return
				}
				src := RandSource{R: rand.New(rand.NewSource(seed + int64(bi)))}
				b := smt.NewBuilder()
				g := NewGen(b, src)
				g.DefHeavy = defHeavy
				batch := &Batch{B: b}
				for i := 0; i < min(batchSize, n-bi*batchSize); i++ {
					batch.Queries = append(batch.Queries, g.Query())
				}
				if d := CheckBatch(batch, configs); d != nil {
					mu.Lock()
					if bi < first {
						first, failed, diff = bi, batch, d
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if failed == nil {
		return
	}
	b, asserts := failed.B, failed.Queries[diff.QueryIndex].Asserts
	report := Format(b, asserts)
	if CheckQuery(b, asserts, configs) != nil {
		report = Format(b, Shrink(b, asserts, configs))
	} else {
		report += "(failure needs session history; full batch required to reproduce)\n"
	}
	t.Fatalf("batch %d (seed %d): %v\nreproducer:\n%s", first, seed+int64(first), diff, report)
}

// TestDiffMatrix is the main differential driver: seeded random queries
// in the verifier's QF_BV+Int fragment, each solved under all eight
// pipeline configurations (fresh/session × simplify on/off × solveEqs
// on/off), with model validation against
// the big-integer oracle and brute-force ground truth at small widths.
// Run it alone with
//
//	go test ./internal/difftest -run Diff -count=1
//
// and scale it with DIFFTEST_QUERIES=<n>.
func TestDiffMatrix(t *testing.T) {
	runMatrix(t, queryBudget(t), 100_000, false)
}

// TestDiffMatrixDefHeavy biases generation toward long chains of
// SSA-style definitional equalities — the shape solveEqs orients — so
// the substitution pass is exercised on every query rather than
// occasionally.
func TestDiffMatrixDefHeavy(t *testing.T) {
	n := queryBudget(t) / 4
	runMatrix(t, n, 200_000, true)
}

// TestDiffGenDeterministic pins the generator's determinism: the same
// seed must produce term-for-term identical batches, or seeds in
// failure reports would be useless.
func TestDiffGenDeterministic(t *testing.T) {
	gen := func() []string {
		src := RandSource{R: rand.New(rand.NewSource(42))}
		batch := GenBatch(src, 20)
		var out []string
		for _, q := range batch.Queries {
			for _, a := range q.Asserts {
				out = append(out, batch.B.String(a))
			}
		}
		return out
	}
	a, b := gen(), gen()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assert %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestDiffByteSourceTerminates feeds adversarial byte streams (empty,
// short, all-ones) through the generator and checks generation always
// terminates and produces well-sorted queries — the property the fuzz
// targets rely on.
func TestDiffByteSourceTerminates(t *testing.T) {
	streams := [][]byte{
		nil,
		{0xff},
		{0x01, 0x02, 0x03},
		make([]byte, 4096), // long zeros
	}
	ones := make([]byte, 4096)
	for i := range ones {
		ones[i] = 0xff
	}
	streams = append(streams, ones)
	for i, s := range streams {
		b := smt.NewBuilder()
		g := NewGen(b, NewByteSource(s))
		q := g.Query()
		if len(q.Asserts) == 0 {
			t.Fatalf("stream %d: empty query", i)
		}
		for _, a := range q.Asserts {
			if b.SortOf(a).Kind != smt.KindBool {
				t.Fatalf("stream %d: non-bool assertion %s", i, b.String(a))
			}
		}
	}
}

// TestShrinkKeepsNonFailing checks Shrink is the identity on queries
// the matrix agrees about.
func TestShrinkKeepsNonFailing(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", smt.BV(8))
	asserts := []smt.TermID{b.BVUlt(x, b.BVConst(10, 8))}
	got := Shrink(b, asserts, Matrix())
	if len(got) != 1 || got[0] != asserts[0] {
		t.Fatalf("Shrink changed a passing query: %v -> %v", asserts, got)
	}
}

// TestSubstituteRebuild exercises the shrinker's term substitution: the
// replacement must go through the public constructors, so folding can
// collapse the result.
func TestSubstituteRebuild(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", smt.BV(8))
	y := b.Var("y", smt.BV(8))
	sum := b.BVAdd(x, y)
	pred := b.BVUlt(sum, b.BVConst(10, 8))
	// Replace y with 0: BVAdd(x, 0) folds to x.
	got := substitute(b, pred, y, b.BVConst(0, 8))
	want := b.BVUlt(x, b.BVConst(10, 8))
	if got != want {
		t.Fatalf("substitute: got %s, want %s", b.String(got), b.String(want))
	}
	// Replacing a term that does not occur is the identity.
	z := b.Var("z", smt.BV(8))
	if substitute(b, pred, z, x) != pred {
		t.Fatal("substitute changed a term without the target subterm")
	}
}

// TestFormatReproducer pins the reproducer rendering: declarations for
// every free variable plus one assert line each.
func TestFormatReproducer(t *testing.T) {
	b := smt.NewBuilder()
	x := b.Var("x", smt.BV(8))
	p := b.Var("p", smt.Bool)
	asserts := []smt.TermID{b.BVUlt(x, b.BVConst(3, 8)), p}
	got := Format(b, asserts)
	want := "(declare-const x (_ BitVec 8))\n(declare-const p Bool)\n(assert (bvult x #b00000011))\n(assert p)\n"
	if got != want {
		t.Fatalf("Format:\n%s\nwant:\n%s", got, want)
	}
}
