// Command crocus-bench is the perf-regression gate: it runs the pinned
// deterministic benchmark sweeps (internal/bench), writes the report in
// the committed BENCH_*.json schema, and compares it against a
// committed baseline under per-metric tolerances.
//
// Usage:
//
//	crocus-bench -out BENCH_pr10.json                      # (re)generate the baseline
//	crocus-bench -baseline BENCH_pr10.json                 # gate: compare a fresh run
//	crocus-bench -baseline BENCH_pr10.json -slowdown 10    # prove the gate fires
//
// Determinism: the sweeps run under a pinned -propagation-budget, so
// timeout outcomes are decided by SAT propagation counts, not the wall
// clock — the same rule set times out identically on any machine. Wall
// time is still compared, but with generous headroom (-max-wall-ratio)
// because runners differ; the deterministic verdict-shape checks carry
// the gate.
//
// -slowdown N divides the propagation budget by N, the synthetic
// regression CI injects to prove the gate can fail: starved budgets
// push borderline units into deterministic timeouts, which trips the
// timeout-delta threshold regardless of machine speed.
//
// Exit status: 0 pass, 1 error, 2 verdict mismatch between the cold and
// warm sweeps, 3 regression against the baseline.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"crocus"
	"crocus/internal/bench"
	"crocus/internal/core"
	"crocus/internal/obs"
)

// defaultBudget is the pinned per-unit SAT propagation budget of the
// regression gate's sweeps. Calibrated so the aarch64 corpus reproduces
// BENCH_pr8's 17-instantiation cold-timeout tail deterministically
// (the mul/div/popcnt shapes of open item #1) while keeping the gate's
// runtime in seconds.
const defaultBudget = 400_000

func main() {
	corpusName := flag.String("corpus", "aarch64", "corpus to sweep: aarch64, x64, midend")
	timeout := flag.Duration("timeout", time.Second, "per-unit wall-clock backstop (the deterministic budget should decide first)")
	budget := flag.Int64("propagation-budget", defaultBudget, "pinned deterministic SAT propagation budget per unit")
	slowdown := flag.Int64("slowdown", 1, "divide the propagation budget by this factor — the synthetic regression CI injects to prove the gate fires")
	parallel := flag.Int("parallel", 0, "verification workers (0 = NumCPU)")
	out := flag.String("out", "", "write the fresh report to this path (the BENCH_pr10.json artifact)")
	baselinePath := flag.String("baseline", "", "committed baseline report to gate against (empty = measure only, no gate)")
	maxWallRatio := flag.Float64("max-wall-ratio", bench.DefaultTolerances().MaxWallRatio, "fail when a phase's wall time exceeds this multiple of the baseline (<= 0 disables)")
	maxTimeoutDelta := flag.Int("max-timeout-delta", bench.DefaultTolerances().MaxTimeoutDelta, "fail when a phase shows more than this many timeouts over the baseline (< 0 disables)")
	traceOut := flag.String("trace-out", "", "export the cold sweep's Chrome trace JSON to this path (CI artifact)")
	metricsOut := flag.String("metrics-out", "", "export the cold sweep's /metricsz-format OpenMetrics snapshot to this path (CI artifact)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crocus-bench:", err)
		os.Exit(1)
	}

	var prog *crocus.Program
	var err error
	switch *corpusName {
	case "aarch64":
		prog, err = crocus.LoadAarch64Corpus()
	case "x64":
		prog, err = crocus.LoadX64Corpus()
	case "midend":
		prog, err = crocus.LoadMidendCorpus()
	default:
		err = fmt.Errorf("unknown corpus %q", *corpusName)
	}
	if err != nil {
		fail(err)
	}

	effBudget := *budget
	if *slowdown > 1 {
		effBudget = *budget / *slowdown
		if effBudget < 1 {
			effBudget = 1
		}
		logger.Warn("synthetic slowdown injected",
			"slowdown", *slowdown, "budget", effBudget)
	}
	par := *parallel
	if par <= 0 {
		par = runtime.NumCPU()
	}
	opts := core.Options{
		Timeout:           *timeout,
		PropagationBudget: effBudget,
		Parallelism:       par,
		Custom:            crocus.CorpusCustomVCs(),
	}

	report, tracer, err := bench.Run(prog, opts, *corpusName)
	if err != nil {
		fail(err)
	}
	// The gate compares experiments by (corpus, timeout, budget); a
	// slowdown run reports the *configured* budget so the baseline
	// comparison proceeds to the metric checks instead of stopping at
	// "different experiment" — the injected starvation is a simulated
	// regression inside the same experiment, and the real thresholds
	// (timeouts, wall time) are what must catch it.
	report.Budget = *budget

	fmt.Printf("bench: %s budget=%d cold %.2fs, warm cache %.2fs, timeouts %d/%d, verdicts match: %v\n",
		*corpusName, effBudget,
		report.IncrementalCold.WallSeconds, report.IncrementalWarm.WallSeconds,
		report.IncrementalCold.Outcomes["timeout"], report.IncrementalWarm.Outcomes["timeout"],
		report.VerdictsMatch)

	if *out != "" {
		if err := report.WriteFile(*out); err != nil {
			fail(err)
		}
		logger.Info("report written", "path", *out)
	}
	if *traceOut != "" {
		if err := tracer.ExportChromeFile(*traceOut); err != nil {
			logger.Warn("trace export failed", "path", *traceOut, "error", err)
		}
	}
	if *metricsOut != "" {
		if err := writeMetricsSnapshot(*metricsOut, tracer); err != nil {
			logger.Warn("metrics export failed", "path", *metricsOut, "error", err)
		}
	}

	if !report.VerdictsMatch {
		fmt.Fprintln(os.Stderr, "crocus-bench: cold and warm sweeps disagree on verdicts")
		os.Exit(2)
	}

	if *baselinePath != "" {
		baseline, err := bench.ReadFile(*baselinePath)
		if err != nil {
			fail(err)
		}
		tol := bench.Tolerances{MaxWallRatio: *maxWallRatio, MaxTimeoutDelta: *maxTimeoutDelta}
		regs := bench.Compare(baseline, report, tol)
		if len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "crocus-bench: %d regression(s) against %s:\n%s",
				len(regs), *baselinePath, bench.RenderRegressions(regs))
			os.Exit(3)
		}
		fmt.Printf("bench: no regressions against %s (max-wall-ratio %.2f, max-timeout-delta %d)\n",
			*baselinePath, *maxWallRatio, *maxTimeoutDelta)
	}
}
