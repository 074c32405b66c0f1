// Command crocus-eval regenerates the paper's evaluation artifacts:
//
//	crocus-eval -exp table1     # Table 1 (verification results)
//	crocus-eval -exp fig4       # Figure 4 (CDF of verification times)
//	crocus-eval -exp coverage   # §4.2 rule-coverage percentages
//	crocus-eval -exp knownbugs  # §4.3 reproductions
//	crocus-eval -exp newbugs    # §4.4 reproductions
//	crocus-eval -exp all        # everything
//
// The -timeout flag scales the per-query solver budget (the paper used up
// to 6 hours for hard mul/div/popcnt instances; any budget reproduces the
// same shape).
//
// SIGINT/SIGTERM cancel the running experiment cooperatively: whatever
// completed is flushed as a clearly-marked PARTIAL report (with -cache-dir,
// every completed verification unit is already persisted, so the next run
// resumes from cache hits) and the process exits 130.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"crocus/internal/core"
	"crocus/internal/eval"
	"crocus/internal/faultinject"
	"crocus/internal/obs"
	"crocus/internal/obs/promtext"
	"crocus/internal/vcache"
)

// parseBudgets parses the -retry-budgets value: a comma-separated list
// of propagation budgets forming the timeout-escalation ladder.
func parseBudgets(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad -retry-budgets entry %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: table1, fig4, coverage, knownbugs, newbugs, all")
	timeout := flag.Duration("timeout", 5*time.Second, "per-unit solver deadline")
	distinct := flag.Bool("distinct", false, "run the distinct-models check during table1")
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent verification workers during table1 (1 = sequential, <= 0 = all CPUs)")
	cacheDir := flag.String("cache-dir", "", "persist verification results under this directory and replay them on re-runs (incremental verification)")
	budget := flag.Int64("propagation-budget", 0, "deterministic SAT propagation budget per unit (0 = unlimited)")
	retryBudgets := flag.String("retry-budgets", "", "timeout-escalation ladder: comma-separated propagation budgets to retry timed-out units at (ascending; 0 = unlimited final rung)")
	traceDir := flag.String("trace-dir", "", "write one Chrome trace-event JSON artifact per experiment (TRACE_<exp>.json) under this directory")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	journal := flag.Bool("journal", false, "record completed table1 verification units in a sweep journal under -cache-dir so a killed run resumes where it died (requires -cache-dir)")
	faults := flag.String("faults", "", "arm deterministic fault injection: 'site=kind:prob[:dur],...[,seed=N]' with kinds error|panic|delay|corrupt|kill; overrides $"+faultinject.EnvVar)
	profileRules := flag.String("profile-rules", "", "write a rule-hardness profile of the table1 sweep (per-rule wall time, SAT statistics, escalations, ranked by cost) as JSON to this file and print the top rules")
	profileTop := flag.Int("profile-top", 15, "rows in the printed rule-hardness table (-profile-rules)")
	logFormat := flag.String("log-format", "text", "diagnostic log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)

	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "crocus-eval:", err)
		os.Exit(1)
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "crocus-eval:", err)
			os.Exit(1)
		}
	}

	ladder, err := parseBudgets(*retryBudgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crocus-eval:", err)
		os.Exit(1)
	}
	if *parallel <= 0 {
		// A zero/negative worker count means "use the machine", never
		// "silently serialize".
		*parallel = runtime.NumCPU()
	}
	cfg := eval.Config{
		Timeout:           *timeout,
		Distinct:          *distinct,
		Parallelism:       *parallel,
		CacheDir:          *cacheDir,
		PropagationBudget: *budget,
		RetryBudgets:      ladder,
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crocus-eval:", err)
		os.Exit(1)
	}

	// The sweep journal scopes to the table1 sweep (the long-running
	// experiment a kill most plausibly interrupts); its identity covers
	// every outcome-affecting knob so a reconfigured run starts fresh.
	var sweepJournal *vcache.Journal
	if *journal {
		if *cacheDir == "" {
			fail(fmt.Errorf("-journal requires -cache-dir"))
		}
		sweepID := vcache.Fingerprint("crocus-eval-sweep-1", []string{
			fmt.Sprintf("timeout=%s distinct=%t budget=%d ladder=%v",
				*timeout, *distinct, *budget, ladder),
		})
		j, jerr := vcache.OpenJournal(*cacheDir, sweepID)
		if jerr != nil {
			fail(jerr)
		}
		sweepJournal = j
		cfg.Journal = j
		if n := j.Resumed(); n > 0 {
			fmt.Printf("journal: resuming sweep, %d units already complete\n", n)
		}
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	interrupted := false

	var debugReg = obs.NewRegistry()
	if *pprofAddr != "" {
		if _, err := obs.ServeDebugAnnounce(logger, "crocus-eval", *pprofAddr, debugReg,
			promtext.Route(debugReg)); err != nil {
			fail(err)
		}
	}
	// traced runs one experiment under its own tracer and exports its
	// trace artifact. Export failures are warnings — observability never
	// changes experiment output or exit codes.
	traced := func(name string, run func(ctx context.Context)) {
		if *traceDir == "" {
			run(ctx)
			return
		}
		tr := obs.New()
		run(obs.WithTracer(ctx, tr))
		path := fmt.Sprintf("%s/TRACE_%s.json", strings.TrimRight(*traceDir, "/"), name)
		if err := tr.ExportChromeFile(path); err != nil {
			logger.Warn("trace export failed", slog.String("file", path), slog.Any("err", err))
		}
	}

	run := map[string]bool{}
	if *exp == "all" {
		for _, e := range []string{"table1", "fig4", "coverage", "knownbugs", "newbugs"} {
			run[e] = true
		}
	} else {
		run[*exp] = true
	}

	if run["table1"] {
		traced("table1", func(ctx context.Context) {
			res, err := eval.Table1Context(ctx, cfg)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
			if res.Cache != nil {
				fmt.Println(res.Cache)
			}
			if *profileRules != "" {
				prof := &core.HardnessProfile{
					Corpus:    "aarch64",
					TimeoutNS: timeout.Nanoseconds(),
					Budget:    *budget,
				}
				for _, ro := range res.Rules {
					prof.AddRule(ro.Name, ro.Insts)
				}
				prof.Finalize()
				// Advisory diagnostics go to stderr; stdout keeps the
				// byte-stable evaluation tables.
				fmt.Fprint(os.Stderr, prof.Render(*profileTop))
				if err := prof.WriteJSONFile(*profileRules); err != nil {
					logger.Warn("hardness profile write failed", slog.String("file", *profileRules), slog.Any("err", err))
				}
			}
			interrupted = interrupted || res.Interrupted
		})
	}
	if run["fig4"] && !interrupted {
		traced("fig4", func(ctx context.Context) {
			res, err := eval.Fig4Context(ctx, cfg)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
			interrupted = interrupted || res.Interrupted
		})
	}
	if run["coverage"] && !interrupted {
		rs, err := eval.Coverage()
		if err != nil {
			fail(err)
		}
		fmt.Println(eval.RenderCoverage(rs))
	}
	if (run["knownbugs"] || run["newbugs"]) && !interrupted {
		traced("bugs", func(ctx context.Context) {
			rs, stats, err := eval.BugsStatsContext(ctx, cfg)
			if err != nil && ctx.Err() == nil {
				fail(err)
			}
			if err != nil {
				interrupted = true
				fmt.Print(eval.PartialHeader(len(rs), len(rs)+1))
			}
			var filtered []*eval.BugResult
			for _, r := range rs {
				known := r.Bug.Section < "4.4"
				if known && run["knownbugs"] || !known && run["newbugs"] {
					filtered = append(filtered, r)
				}
			}
			fmt.Println(eval.RenderBugs(filtered))
			if stats != nil {
				fmt.Println(stats)
			}
		})
	}
	if sweepJournal != nil {
		if !interrupted {
			if err := sweepJournal.Complete(); err != nil {
				fmt.Fprintln(os.Stderr, "crocus-eval: journal:", err)
			}
		}
		if err := sweepJournal.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crocus-eval: journal:", err)
		}
	}
	if faultinject.Enabled() {
		logger.Info(faultinject.Summary())
	}
	if interrupted {
		logger.Warn("crocus-eval: interrupted — report above is partial; re-run with the same -cache-dir to resume from cached results")
		os.Exit(130)
	}
}
