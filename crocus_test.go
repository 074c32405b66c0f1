package crocus

import (
	"strings"
	"testing"
	"time"
)

const miniRules = `
(type Inst (primitive Inst))
(type InstOutput (primitive InstOutput))
(type Value (primitive Value))
(type Reg (primitive Reg))
(type Type (primitive Type))
(model Type Int)
(model Value (bv))
(model Inst (bv))
(model InstOutput (bv))
(model Reg (bv 64))
(decl lower (Inst) InstOutput)
(spec (lower arg) (provide (= result arg)))
(decl put_in_reg (Value) Reg)
(spec (put_in_reg arg) (provide (= result (convto 64 arg))))
(convert Value Reg put_in_reg)
(decl output_reg (Reg) InstOutput)
(spec (output_reg arg) (provide (= result (convto (widthof result) arg))))
(convert Reg InstOutput output_reg)
(decl iadd (Value Value) Inst)
(spec (iadd x y) (provide (= result (+ x y))))
(instantiate iadd ((args (bv 32) (bv 32)) (ret (bv 32))))
(decl a64_add (Reg Reg) Reg)
(spec (a64_add x y) (provide (= result (+ x y))))
(rule add_ok (lower (iadd x y)) (a64_add x y))
(rule add_bad (lower (iadd x y)) (a64_add x x))
`

func TestPublicAPIVerify(t *testing.T) {
	prog, err := ParseProgram(map[string]string{"mini.isle": miniRules})
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(prog, Options{Timeout: 30 * time.Second})
	results, err := v.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]*RuleResult{}
	for _, rr := range results {
		byName[rr.Rule.Name] = rr
	}
	if byName["add_ok"].Outcome() != OutcomeSuccess {
		t.Fatalf("add_ok: %v", byName["add_ok"].Outcome())
	}
	if byName["add_bad"].Outcome() != OutcomeFailure {
		t.Fatalf("add_bad: %v", byName["add_bad"].Outcome())
	}
	cex := byName["add_bad"].Insts[0].Counterexample
	if cex == nil || !strings.Contains(cex.Rendered, "=>") {
		t.Fatal("missing rendered counterexample")
	}
}

// TestPublicAPICache: a library user caches through OpenCache and
// Options.Cache, and a second run over the same directory replays every
// unit.
func TestPublicAPICache(t *testing.T) {
	prog, err := ParseProgram(map[string]string{"mini.isle": miniRules})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for run, want := range []CacheStats{{Misses: 2}, {Hits: 2}} {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewVerifier(prog, Options{Timeout: 30 * time.Second, Cache: cache}).VerifyAll(); err != nil {
			t.Fatal(err)
		}
		if s := cache.Stats(); s.Hits != want.Hits || s.Misses != want.Misses || s.Stale != 0 {
			t.Fatalf("run %d: %v, want %d hits and %d misses", run, s, want.Hits, want.Misses)
		}
		if err := cache.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicAPICorpusLoaders(t *testing.T) {
	prog, err := LoadAarch64Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 96 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	if _, err := LoadX64Corpus(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMidendCorpus(); err != nil {
		t.Fatal(err)
	}
	if len(Bugs()) != 6 {
		t.Fatalf("bugs = %d", len(Bugs()))
	}
	if _, err := LoadBugCorpusByID("cls_bug"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBugCorpusByID("nope"); err == nil {
		t.Fatal("expected unknown-bug error")
	}
	src, err := CorpusSource("prelude.isle")
	if err != nil || !strings.Contains(src, "small_rotr") {
		t.Fatalf("prelude source: %v", err)
	}
	if len(CorpusCustomVCs()) != 2 {
		t.Fatal("custom VCs")
	}
}

func TestPublicAPIInterpreter(t *testing.T) {
	prog, err := ParseProgram(map[string]string{"mini.isle": miniRules})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(prog)
	res, err := r.Run("add_ok", Case{Width: 32, Inputs: map[string]uint64{"x": 7, "y": 35}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Matches || !res.Equal || res.LHS.Bits != 42 {
		t.Fatalf("interp: %+v", res)
	}
}

func TestParseFilesOrder(t *testing.T) {
	// Split the mini corpus across two files: decls first, rules second.
	i := strings.Index(miniRules, "(rule add_ok")
	prog, err := ParseFiles(
		[]string{"a.isle", "b.isle"},
		[]string{miniRules[:i], miniRules[i:]})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 2 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
}
