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
// completed is flushed as a clearly-marked PARTIAL report and the process
// exits 130. With -cache-dir, every completed verification unit is
// already persisted, so rerunning the same command after Ctrl-C or
// kill -9 resumes from cache hits. A -cache-dir that cannot be opened
// disables the cache for the run (one line on stderr), never the
// experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"slices"
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

// parseBudgets checks the -propagation-budget value and parses the
// -retry-budgets value: a comma-separated list of propagation budgets
// forming the timeout-escalation ladder. Budgets are never negative.
func parseBudgets(base int64, s string) ([]int64, error) {
	if base < 0 {
		return nil, fmt.Errorf("bad -propagation-budget %d (want >= 0; 0 = unlimited)", base)
	}
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
	parallel := flag.Int("parallel", runtime.NumCPU(), "concurrent verification workers during table1 (1 = one worker, <= 0 = all CPUs)")
	cacheDir := flag.String("cache-dir", "", "persist verification results under this directory and replay them on re-runs (incremental verification; a rerun after a kill resumes where it stopped)")
	budget := flag.Int64("propagation-budget", 0, "deterministic SAT propagation budget per unit (0 = unlimited)")
	retryBudgets := flag.String("retry-budgets", "", "timeout-escalation ladder: comma-separated propagation budgets to retry timed-out units at (ascending; 0 = unlimited final rung)")
	traceDir := flag.String("trace-dir", "", "write one Chrome trace-event JSON artifact per experiment (TRACE_<exp>.json) under this directory")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	faults := flag.String("faults", "", "arm deterministic fault injection: 'site=kind:prob[:dur],...[,seed=N]' with kinds error|panic|delay|corrupt|kill; overrides $"+faultinject.EnvVar)
	profileRules := flag.String("profile-rules", "", "write a rule-hardness profile of the table1 sweep (per-rule wall time, SAT statistics, escalations, ranked by cost) as JSON to this file and print the top rules")
	profileTop := flag.Int("profile-top", 15, "rows in the printed rule-hardness table (-profile-rules)")
	logFormat := flag.String("log-format", "text", "diagnostic log format on stderr: text or json")
	logLevel := flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
	flag.Parse()

	// An unknown -exp is refused before any work, like any other bad flag.
	experiments := []string{"table1", "fig4", "coverage", "knownbugs", "newbugs"}
	run := map[string]bool{}
	switch {
	case *exp == "all":
		for _, e := range experiments {
			run[e] = true
		}
	case slices.Contains(experiments, *exp):
		run[*exp] = true
	default:
		fmt.Fprintf(os.Stderr, "crocus-eval: unknown -exp %q (want one of %s, all)\n", *exp, strings.Join(experiments, ", "))
		os.Exit(1)
	}

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

	ladder, err := parseBudgets(*budget, *retryBudgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crocus-eval:", err)
		os.Exit(1)
	}
	if *parallel <= 0 {
		// A zero/negative worker count means "use the machine", never
		// "silently serialize".
		*parallel = runtime.NumCPU()
	}
	var cache *vcache.Cache
	if *cacheDir != "" {
		if cache, err = vcache.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "crocus-eval: cache disabled:", err)
		}
	}
	cfg := eval.Config{
		Timeout:           *timeout,
		Distinct:          *distinct,
		Parallelism:       *parallel,
		Cache:             cache,
		PropagationBudget: *budget,
		RetryBudgets:      ladder,
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crocus-eval:", err)
		os.Exit(1)
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

	if run["table1"] {
		traced("table1", func(ctx context.Context) {
			res, err := eval.Table1Context(ctx, cfg)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
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
			rs, err := eval.BugsContext(ctx, cfg)
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
		})
	}
	if faultinject.Enabled() {
		logger.Info(faultinject.Summary())
	}
	exit := 0
	if cache != nil {
		fmt.Println(cache.Stats())
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crocus-eval: cache flush:", err)
			exit = 1
		}
	}
	if interrupted {
		logger.Warn("crocus-eval: interrupted — report above is partial; re-run with the same -cache-dir to resume from cached results")
		exit = 130
	}
	os.Exit(exit)
}
