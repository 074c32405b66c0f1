package crocus

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus micro-benchmarks of the solver substrate. Run
//
//	go test -bench=. -benchmem
//
// Each macro-benchmark prints the regenerated artifact (table rows, CDF
// percentiles, coverage percentages, bug reproductions) through b.Log on
// the first iteration, and reports aggregate metrics via b.ReportMetric.
// Per-query timeouts are scaled down from the paper's 6-hour budget; the
// shape (who verifies, what times out, where counterexamples appear) is
// the reproduction target — see EXPERIMENTS.md.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/eval"
	"crocus/internal/isle"
	"crocus/internal/lower"
	"crocus/internal/smt"
	"crocus/internal/wasm"
)

// benchTimeout is the per-query solver budget for the sweep benchmarks.
// The paper's hard instances (mul/div/rem/popcnt at wide widths) time out
// at any practical budget; 2s keeps a full Table 1 sweep to minutes.
const benchTimeout = 2 * time.Second

// BenchmarkTable1VerificationResults regenerates Table 1: verification
// outcomes for all 96 rules across their type instantiations.
func BenchmarkTable1VerificationResults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Table1(eval.Config{Timeout: benchTimeout})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", res.Render())
			b.ReportMetric(float64(res.TotalRules), "rules")
			b.ReportMetric(float64(res.TotalInsts), "instantiations")
			b.ReportMetric(float64(res.SuccessInsts), "success")
			b.ReportMetric(float64(res.TimeoutInsts), "timeout")
			b.ReportMetric(float64(res.InapplicableInsts), "inapplicable")
			b.ReportMetric(float64(res.FailureInsts), "failure")
		}
	}
}

// BenchmarkFig4RuleVerificationCDF regenerates Figure 4: the CDF of
// per-rule verification times.
func BenchmarkFig4RuleVerificationCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.Fig4(eval.Config{Timeout: benchTimeout})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// The full CDF series is the artifact; log the percentile
			// summary here (regenerate the series via crocus-eval -exp fig4).
			n := len(res.Durations)
			b.Logf("tests=%d timeouts=%d p50=%v p90=%v max=%v",
				n, res.TimedOut,
				res.Durations[n/2].Round(time.Millisecond),
				res.Durations[n*9/10].Round(time.Millisecond),
				res.Durations[n-1].Round(time.Millisecond))
			b.ReportMetric(float64(res.TimedOut), "timeouts")
			b.ReportMetric(res.Durations[n/2].Seconds(), "p50-s")
		}
	}
}

// BenchmarkCoverageWasmSuite regenerates the §4.2 Wasm-reference-suite
// coverage number (paper: 19.8% of invoked unique rules verified).
func BenchmarkCoverageWasmSuite(b *testing.B) {
	prog, err := corpus.LoadCoverage()
	if err != nil {
		b.Fatal(err)
	}
	verified, err := corpus.VerifiedRuleNames()
	if err != nil {
		b.Fatal(err)
	}
	m, err := wasm.ReferenceSuite()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := lower.New(prog)
		for _, f := range m.Funcs {
			if err := eng.LowerFunc(f); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			inv, ver := 0, 0
			for name := range eng.Fired() {
				inv++
				if verified[name] {
					ver++
				}
			}
			b.Logf("wasm suite: verified %d / %d invoked = %.1f%%", ver, inv, 100*float64(ver)/float64(inv))
			b.ReportMetric(100*float64(ver)/float64(inv), "%verified")
		}
	}
}

// BenchmarkCoverageNarrowSuite regenerates the §4.2 narrow-type-suite
// coverage number (paper: 15.8% for rustc_codegen_cranelift).
func BenchmarkCoverageNarrowSuite(b *testing.B) {
	prog, err := corpus.LoadCoverage()
	if err != nil {
		b.Fatal(err)
	}
	verified, err := corpus.VerifiedRuleNames()
	if err != nil {
		b.Fatal(err)
	}
	funcs := wasm.NarrowSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := lower.New(prog)
		for _, f := range funcs {
			if err := eng.LowerFunc(f); err != nil {
				b.Fatal(err)
			}
		}
		if i == 0 {
			inv, ver := 0, 0
			for name := range eng.Fired() {
				inv++
				if verified[name] {
					ver++
				}
			}
			b.Logf("narrow suite: verified %d / %d invoked = %.1f%%", ver, inv, 100*float64(ver)/float64(inv))
			b.ReportMetric(100*float64(ver)/float64(inv), "%verified")
		}
	}
}

// benchBug verifies one reproduced defect end to end.
func benchBug(b *testing.B, id string) {
	var bug corpus.Bug
	for _, bb := range corpus.Bugs() {
		if bb.ID == id {
			bug = bb
		}
	}
	if bug.ID == "" {
		b.Fatalf("unknown bug %s", id)
	}
	for i := 0; i < b.N; i++ {
		prog, err := corpus.LoadBug(bug)
		if err != nil {
			b.Fatal(err)
		}
		v := core.New(prog, core.Options{Timeout: 60 * time.Second, DistinctModels: bug.DistinctModels})
		for name, want := range bug.Expect {
			for _, r := range prog.Rules {
				if r.Name != name {
					continue
				}
				rr, err := v.VerifyRule(r)
				if err != nil {
					b.Fatal(err)
				}
				if rr.Outcome() != want {
					b.Fatalf("%s: got %v, want %v", name, rr.Outcome(), want)
				}
			}
		}
	}
}

// §4.3.1 — the 9.9/10 x86-64 addressing-mode CVE ("In under one second on
// a laptop, Crocus detects ...") plus the §4.4.1 variant.
func BenchmarkKnownBugAmodeCVE(b *testing.B) { benchBug(b, "amode_cve") }

// §4.3.2 — the aarch64 constant-divisor CVE.
func BenchmarkKnownBugUdivImm(b *testing.B) { benchBug(b, "udiv_imm_cve") }

// §4.3.3 — the aarch64 count-leading-sign bug.
func BenchmarkKnownBugCls(b *testing.B) { benchBug(b, "cls_bug") }

// §4.4.2 — the negated-constant rules flagged by the distinct-models check.
func BenchmarkNewBugNegatedConst(b *testing.B) { benchBug(b, "negconst_bug") }

// §4.4.3 — the constant-representation imprecision.
func BenchmarkNewBugIconstSemantics(b *testing.B) { benchBug(b, "iconst_semantics") }

// §4.4.4 — the mid-end bor/band root cause.
func BenchmarkNewBugMidend(b *testing.B) { benchBug(b, "midend_bug") }

// --- substrate micro-benchmarks ---

// BenchmarkVerifyOneRuleFast measures an easy end-to-end verification
// (iadd across all four widths), the bulk of Figure 4's mass.
func BenchmarkVerifyOneRuleFast(b *testing.B) {
	prog, err := corpus.LoadAarch64()
	if err != nil {
		b.Fatal(err)
	}
	v := core.New(prog, core.Options{Timeout: 30 * time.Second})
	rule := prog.Rules[0] // iadd_base
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := v.VerifyRule(rule)
		if err != nil {
			b.Fatal(err)
		}
		if !rr.AllSuccess() {
			b.Fatal("iadd_base must verify")
		}
	}
}

// BenchmarkCounterexampleSearch measures time-to-counterexample on the
// §4.3.3 cls bug (the "failure within seconds" claim of §4.1).
func BenchmarkCounterexampleSearch(b *testing.B) {
	var bug corpus.Bug
	for _, bb := range corpus.Bugs() {
		if bb.ID == "cls_bug" {
			bug = bb
		}
	}
	prog, err := corpus.LoadBug(bug)
	if err != nil {
		b.Fatal(err)
	}
	v := core.New(prog, core.Options{Timeout: 60 * time.Second})
	target := mustRule(b, prog.Rules, "cls8_buggy")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rr, err := v.VerifyRule(target)
		if err != nil {
			b.Fatal(err)
		}
		if rr.Outcome() != core.OutcomeFailure {
			b.Fatal("expected counterexample")
		}
	}
}

// BenchmarkSMTSolveAdd64 measures the raw bit-blasting + CDCL pipeline on
// a 64-bit addition validity query.
func BenchmarkSMTSolveAdd64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bl := smt.NewBuilder()
		x := bl.Var("x", smt.BV(64))
		y := bl.Var("y", smt.BV(64))
		f := bl.Distinct(bl.BVAdd(x, y), bl.BVAdd(y, x))
		res, err := smt.Check(bl, []smt.TermID{f}, smt.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != smt.UnsatRes {
			b.Fatal("commutativity must hold")
		}
	}
}

// BenchmarkLoweringThroughput measures the instruction selector over the
// whole reference suite (expressions per second).
func BenchmarkLoweringThroughput(b *testing.B) {
	prog, err := corpus.LoadCoverage()
	if err != nil {
		b.Fatal(err)
	}
	m, err := wasm.ReferenceSuite()
	if err != nil {
		b.Fatal(err)
	}
	eng := lower.New(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range m.Funcs {
			if err := eng.LowerFunc(f); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(m.Funcs)), "funcs/op")
}

func mustRule(b *testing.B, rules []*isle.Rule, name string) *isle.Rule {
	b.Helper()
	for _, r := range rules {
		if r.Name == name {
			return r
		}
	}
	b.Fatalf("no rule %s", name)
	return nil
}

// --- ablation benchmarks (design choices DESIGN.md calls out) ---

// BenchmarkAblationWidthScaling verifies the same division rule at each
// width in isolation: the paper's central performance observation is that
// bit-level multiplicative reasoning scales steeply with width (§4.1's
// timeouts). Sub-benchmarks report per-width verification time; widths
// that exceed the budget report the timeout ceiling.
func BenchmarkAblationWidthScaling(b *testing.B) {
	prog, err := corpus.LoadAarch64()
	if err != nil {
		b.Fatal(err)
	}
	v := core.New(prog, core.Options{Timeout: benchTimeout})
	rule := mustRule(b, prog.Rules, "udiv_fits32")
	for _, sig := range v.Sigs(rule) {
		sig := sig
		b.Run(sig.Ret.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyInstantiation(rule, sig); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerifyCorpusIncremental measures the full aarch64 corpus
// sweep, each verification unit solving its queries on one session of
// its own, under a one-second wall-clock timeout that the hard mul/div
// instances hit.
func BenchmarkVerifyCorpusIncremental(b *testing.B) {
	prog, err := corpus.LoadAarch64()
	if err != nil {
		b.Fatal(err)
	}
	v := core.New(prog, core.Options{Timeout: time.Second})
	var queries int64
	for i := 0; i < b.N; i++ {
		rs, err := v.VerifyAll()
		if err != nil {
			b.Fatal(err)
		}
		queries = 0
		for _, rr := range rs {
			for _, io := range rr.Insts {
				queries += io.Stats.Queries
			}
		}
	}
	b.ReportMetric(float64(queries), "queries/op")
}

// BenchmarkAblationDistinctCheck measures the overhead of the optional
// §3.2.1 distinct-models check on a fast rule (one extra SMT query per
// applicable instantiation).
func BenchmarkAblationDistinctCheck(b *testing.B) {
	prog, err := corpus.LoadAarch64()
	if err != nil {
		b.Fatal(err)
	}
	rule := mustRule(b, prog.Rules, "iadd_imm12_right")
	for _, on := range []bool{false, true} {
		name := "off"
		if on {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			v := core.New(prog, core.Options{Timeout: benchTimeout, DistinctModels: on})
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyRule(rule); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelism runs a fast half of the corpus sweep
// sequentially vs with a worker per CPU, demonstrating that rule
// verification parallelizes (each query owns its solver).
func BenchmarkAblationParallelism(b *testing.B) {
	prog, err := corpus.LoadAarch64()
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, runtime.NumCPU()} {
		par := par
		b.Run(fmt.Sprintf("workers-%d", par), func(b *testing.B) {
			v := core.New(prog, core.Options{
				Timeout:     500 * time.Millisecond,
				Parallelism: par,
			})
			for i := 0; i < b.N; i++ {
				if _, err := v.VerifyAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
