package difftest

import (
	"math/rand"
	"testing"

	"crocus/internal/sat"
	"crocus/internal/smt"
)

// Differential and property tests for structural hashing in the
// bit-blaster. Hashing claims to be invisible: it preserves node
// semantics, so the circuit must match the big-integer oracle and every
// verdict must agree with hashing off. Both properties get a byte-driven
// fuzz target plus seeded drivers.

// structHashConfigs is the hashing on/off pair, with the word-level
// passes disabled so every check below exercises the gate-level circuit
// rather than the rewriter.
func structHashConfigs() []smt.Config {
	return []smt.Config{
		{NoSimplify: true, NoSolveEqs: true},
		{NoSimplify: true, NoSolveEqs: true, NoStructHash: true},
	}
}

// runStructHashEval checks the blasted circuit computes exactly the
// big-integer oracle's value: for a generated term t and a concrete
// environment E, the query (vars = E) ∧ t ≠ oracle(t, E) must be Unsat
// with hashing on and off. This pins the semantics of every gate the
// hashing touches (the shared-adder multiplier, the direct majority and
// 3-input-xor encodings, ITE canonicalization) node by node.
func runStructHashEval(t *testing.T, src Source, seed int64) {
	t.Helper()
	b := smt.NewBuilder()
	g := NewGen(b, src)
	w := []int{1, 4, 8}[src.Intn(3)]
	term := g.BV(w, 3)
	for ei, env := range randEnvs(b, rand.New(rand.NewSource(seed)), 2, term) {
		want, err := Eval(b, term, env)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		asserts := []smt.TermID{b.Not(b.Eq(term, b.BVConst(want.Uint64(), w)))}
		for _, v := range FreeVars(b, []smt.TermID{term}) {
			tm := b.Term(v)
			val := env[tm.Name]
			if tm.Sort.Kind == smt.KindBool {
				asserts = append(asserts, b.Iff(v, b.BoolConst(val.True())))
			} else {
				asserts = append(asserts, b.Eq(v, b.BVConst(val.Uint64(), tm.Sort.Width)))
			}
		}
		for _, cfg := range structHashConfigs() {
			res, err := smt.Check(b, asserts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != sat.Unsat {
				t.Fatalf("env %d (hashing off=%v): circuit disagrees with oracle on\n%s\nunder env %v (oracle value %s)",
					ei, cfg.NoStructHash, b.String(term), env, want.B)
			}
		}
	}
}

// runStructHashVerdicts cross-checks full generated queries with hashing
// on and off: identical verdicts, and every Sat model must satisfy the
// assertions under the oracle.
func runStructHashVerdicts(t *testing.T, src Source) {
	t.Helper()
	b := smt.NewBuilder()
	g := NewGen(b, src)
	q := g.Query()
	var agreed sat.Status
	for i, cfg := range structHashConfigs() {
		res, err := smt.Check(b, q.Asserts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == sat.Unknown {
			t.Fatalf("hashing off=%v: Unknown with no budget", cfg.NoStructHash)
		}
		if i == 0 {
			agreed = res.Status
		} else if res.Status != agreed {
			t.Fatalf("verdict flips with hashing off: %v vs %v\nreproducer:\n%s",
				agreed, res.Status, Format(b, q.Asserts))
		}
		if res.Status == sat.Sat {
			if reason := checkModel(b, q.Asserts, res.Model); reason != "" {
				t.Fatalf("hashing off=%v: %s\nreproducer:\n%s", cfg.NoStructHash, reason, Format(b, q.Asserts))
			}
		}
	}
}

// FuzzStructHash is the byte-driven form of both structural-hashing
// properties (circuit-vs-oracle evaluation, then verdict agreement on a
// full query from the same stream).
func FuzzStructHash(f *testing.F) {
	f.Add([]byte{0x07, 0x1c, 0x70, 0xc1, 0x07, 0x1c, 0x70, 0xc1})
	f.Add([]byte{0x5a, 0xa5, 0x5a, 0xa5, 0x5a, 0xa5})
	f.Fuzz(func(t *testing.T, data []byte) {
		var seed int64
		for _, x := range data {
			seed = seed*131 + int64(x)
		}
		runStructHashEval(t, NewByteSource(data), seed)
		runStructHashVerdicts(t, NewByteSource(data))
	})
}

// TestStructHashSemanticsSeeded runs the circuit-vs-oracle property on
// seeded random terms.
func TestStructHashSemanticsSeeded(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		seed := 8800 + int64(i)
		runStructHashEval(t, RandSource{R: rand.New(rand.NewSource(seed))}, seed)
	}
}

// TestStructHashVerdictsSeeded runs the verdict-agreement property on
// seeded random queries.
func TestStructHashVerdictsSeeded(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for i := 0; i < iters; i++ {
		runStructHashVerdicts(t, RandSource{R: rand.New(rand.NewSource(9900 + int64(i)))})
	}
}
