// Command crocus verifies ISLE instruction-lowering rules against their
// annotations, in the manner of the paper's Rust test suite: one line per
// (rule, type instantiation) with outcome, timing, and counterexamples
// rendered in ISLE surface syntax.
//
// Usage:
//
//	crocus [-timeout 5s] [-rule name] [-distinct] [-parallel N] [-stats]
//	       [-cache-dir DIR] [-faults SPEC]
//	       [-server URL] [-server-timeout D] [-server-retries N]
//	       [-trace FILE] [-trace-jsonl FILE] [-metrics] [-pprof-addr ADDR]
//	       [-corpus aarch64|x64|midend|bug:<id>] [file.isle ...]
//
// With file arguments, the named ISLE files are parsed (in order) and
// verified; otherwise the selected embedded corpus is used. With
// -cache-dir, verification is incremental: results are persisted under
// the directory keyed by a content fingerprint of each query, so an
// unchanged rule is replayed instead of re-solved on the next run. Each
// unit's result is on disk as soon as the unit finishes, so rerunning the
// same command after Ctrl-C or kill -9 resumes where the sweep stopped.
//
// Each verification unit — one rule at one type instantiation — solves
// all of its queries on one SMT session of its own (word-level
// simplification, learned clauses kept across the unit's queries,
// assumption-guarded queries), so a unit's verdict never depends on
// -parallel or on which other units ran before it. The repository
// benchmark is perfbench (bash perfbench/run.sh).
//
// With -server, the run is verified by the daemon, and a flag only a
// local run reads (-parallel, -cache-dir, -trace, -profile-rules, ...)
// is an error rather than silently ignored. An attempt that stalls past
// -server-timeout is abandoned, and a failed one (429, 5xx, connection
// error) is retried up to -server-retries times, waiting at least the
// Retry-After a shedding daemon sends.
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

	"crocus"
	"crocus/internal/faultinject"
	"crocus/internal/obs"
	"crocus/internal/obs/promtext"
	"crocus/internal/serve"
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

// localOnlyFlags are the flags the -server client path never reads.
var localOnlyFlags = map[string]bool{
	"parallel":      true,
	"cache-dir":     true,
	"overlap":       true,
	"inject-panic":  true,
	"profile-rules": true,
	"profile-top":   true,
	"trace":         true,
	"trace-jsonl":   true,
	"metrics":       true,
	"pprof-addr":    true,
}

// checkClientFlags rejects a -server run that sets a local-only flag,
// which the run would otherwise drop without a word.
func checkClientFlags(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if localOnlyFlags[f.Name] && err == nil {
			err = fmt.Errorf("-%s applies to local sweeps, not -server runs", f.Name)
		}
	})
	return err
}

// The command-line flags live at package level, so the tests see the
// exact set main parses.
var (
	timeout       = flag.Duration("timeout", 5*time.Second, "per-unit solver deadline")
	ruleName      = flag.String("rule", "", "verify only the named rule")
	distinct      = flag.Bool("distinct", false, "run the distinct-models check (§3.2.1)")
	corpusName    = flag.String("corpus", "aarch64", "embedded corpus: aarch64, x64, midend, or bug:<id>")
	custom        = flag.Bool("custom-vc", false, "apply the corpus's custom verification conditions")
	overlap       = flag.Bool("overlap", false, "run the multi-rule overlap/priority analysis instead of verification")
	parallel      = flag.Int("parallel", 1, "concurrent verification workers taking (rule, instantiation) units from one queue in source order (1 = one worker, <= 0 = all CPUs)")
	stats         = flag.Bool("stats", false, "print cumulative SAT statistics (propagations/conflicts/decisions/queries) per rule")
	cacheDir      = flag.String("cache-dir", "", "persist verification results under this directory and replay them on re-runs (incremental verification)")
	budget        = flag.Int64("propagation-budget", 0, "deterministic SAT propagation budget per unit (0 = unlimited)")
	retryBudgets  = flag.String("retry-budgets", "", "timeout-escalation ladder: comma-separated propagation budgets to retry timed-out units at (ascending; 0 = unlimited final rung)")
	injectPanic   = flag.String("inject-panic", "", "fault-injection: install a custom VC that panics for the named rule (testing the containment path)")
	traceFile     = flag.String("trace", "", "write a Chrome trace-event JSON file of the run's pipeline spans (load in Perfetto or chrome://tracing)")
	traceJSONL    = flag.String("trace-jsonl", "", "write the run's pipeline spans as a JSONL event stream")
	metrics       = flag.Bool("metrics", false, "print the metrics registry and the per-rule phase-breakdown table after the run")
	pprofAddr     = flag.String("pprof-addr", "", "serve net/http/pprof and expvar metrics on this address (e.g. localhost:6060)")
	server        = flag.String("server", "", "submit the run to a crocus-serve daemon at this base URL (e.g. http://localhost:8742) instead of verifying locally")
	faults        = flag.String("faults", "", "arm deterministic fault injection: 'site=kind:prob[:dur],...[,seed=N]' with kinds error|panic|delay|corrupt|kill; overrides $"+faultinject.EnvVar)
	serverTimeout = flag.Duration("server-timeout", 2*time.Minute, "per-attempt HTTP timeout for -server requests")
	serverRetries = flag.Int("server-retries", 3, "retries after the first -server attempt on 429/5xx/connection errors (capped exponential backoff with jitter, honoring Retry-After; 0 disables)")
	profileRules  = flag.String("profile-rules", "", "write a rule-hardness profile (per-rule wall time, SAT statistics, escalations, cache state, ranked by cost) as JSON to this file and print the top rules")
	profileTop    = flag.Int("profile-top", 15, "rows in the printed rule-hardness table (-profile-rules)")
	logFormat     = flag.String("log-format", "text", "diagnostic log format on stderr: text or json")
	logLevel      = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
)

func main() {
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)

	// Fault-injection arming: the env var first (so wrappers and CI can arm
	// any crocus invocation), then the flag as an explicit override.
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "crocus:", err)
		os.Exit(1)
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			os.Exit(1)
		}
	}

	if *parallel <= 0 {
		// A zero/negative worker count means "use the machine", never
		// "silently serialize".
		*parallel = runtime.NumCPU()
	}
	ladder, err := parseBudgets(*budget, *retryBudgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crocus:", err)
		os.Exit(1)
	}
	if *overlap && *ruleName != "" {
		// The overlap analysis covers every rule pair of the program.
		fmt.Fprintln(os.Stderr, "crocus: -rule applies to verification, not -overlap")
		os.Exit(1)
	}

	if *server != "" {
		if err := checkClientFlags(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			os.Exit(1)
		}
		code := runClient(clientConfig{
			server:     strings.TrimRight(*server, "/"),
			corpusName: *corpusName,
			files:      flag.Args(),
			ruleName:   *ruleName,
			timeout:    *timeout,
			distinct:   *distinct,
			custom:     *custom,
			stats:      *stats,
			budget:     *budget,
			ladder:     ladder,
			reqTimeout: *serverTimeout,
			retries:    *serverRetries,
		})
		printFaultSummary(logger)
		os.Exit(code)
	}

	// Any observability flag turns the tracer on; without one every span
	// and counter call in the pipeline is a no-op.
	var tracer *obs.Tracer
	if *traceFile != "" || *traceJSONL != "" || *metrics || *pprofAddr != "" {
		tracer = obs.New()
	}
	if *pprofAddr != "" {
		if _, err := obs.ServeDebugAnnounce(logger, "crocus", *pprofAddr, tracer.Registry(),
			promtext.Route(tracer.Registry())); err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			os.Exit(1)
		}
	}

	spParse := tracer.StartSpan(obs.PhaseParse, obs.Str("corpus", *corpusName))
	prog, err := loadProgram(*corpusName, flag.Args())
	spParse.End()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crocus:", err)
		os.Exit(1)
	}

	// A cache directory that cannot be opened disables caching for the
	// run, never verification.
	var cache *vcache.Cache
	if *cacheDir != "" && !*overlap {
		if cache, err = vcache.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, "crocus: cache disabled:", err)
		}
	}

	opts := crocus.Options{
		Timeout:           *timeout,
		DistinctModels:    *distinct,
		Parallelism:       *parallel,
		Cache:             cache,
		PropagationBudget: *budget,
		RetryBudgets:      ladder,
	}
	if *custom {
		opts.Custom = crocus.CorpusCustomVCs()
	}
	if *injectPanic != "" {
		if opts.Custom == nil {
			opts.Custom = map[string]*crocus.CustomVC{}
		}
		name := *injectPanic
		opts.Custom[name] = &crocus.CustomVC{
			Condition: func(_ *crocus.VCContext) (id crocus.TermID, err error) {
				panic(fmt.Sprintf("injected fault (-inject-panic %s)", name))
			},
		}
	}

	v := crocus.NewVerifier(prog, opts)

	if *overlap {
		out, err := v.FindAmbiguousOverlaps()
		if err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			os.Exit(1)
		}
		code := 0
		for _, o := range out {
			fmt.Printf("%-12s %s / %s", o.Kind, o.RuleA, o.RuleB)
			if len(o.Witness) > 0 {
				fmt.Printf("  witness: %v", o.Witness)
			}
			fmt.Println()
			if o.Kind.String() == "AMBIGUOUS" {
				code = 3
			}
		}
		fmt.Printf("%d overlapping pairs\n", len(out))
		exportObs(logger, tracer, *traceFile, *traceJSONL, *metrics)
		os.Exit(code)
	}

	// SIGINT/SIGTERM cancel the sweep cooperatively: completed results
	// are flushed as a clearly-marked partial report, the result cache
	// already holds every finished unit, and the process exits 130.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	ctx = obs.WithTracer(ctx, tracer)

	exit := 0
	var counts outcomeCounts
	var profiled []*crocus.RuleResult
	interrupted := false
	if *ruleName == "" {
		// Sweep through the façade: one VerifyAllContext call, results in
		// source order, fault-isolated (a rule that panics or errors is
		// reported as outcome "error" instead of aborting the run).
		rs, err := v.VerifyAllContext(ctx)
		if err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			os.Exit(1)
		}
		interrupted = err != nil
		for _, rr := range rs {
			v := serve.NewRuleVerdict(rr)
			printVerdict(&v, *stats, &exit)
			counts.addOutcome(v.Outcome)
		}
		profiled = rs
		if interrupted {
			fmt.Printf("*** PARTIAL REPORT: interrupted after %d/%d rules ***\n", len(rs), len(prog.Rules))
		}
		fmt.Printf("summary: %d rules — %s\n", counts.total, counts.String())
	} else {
		found := false
		for _, r := range prog.Rules {
			if r.Name != *ruleName {
				continue
			}
			found = true
			rr, err := v.VerifyRuleContext(ctx, r)
			if err != nil {
				if ctx.Err() != nil {
					interrupted = true
					break
				}
				fmt.Fprintf(os.Stderr, "crocus: %s: %v\n", r.Name, err)
				exit = 1
				continue
			}
			v := serve.NewRuleVerdict(rr)
			printVerdict(&v, *stats, &exit)
			profiled = append(profiled, rr)
		}
		if !found {
			// The daemon answers the same request with a 404.
			fmt.Fprintf(os.Stderr, "crocus: rule %q not found\n", *ruleName)
			exit = 1
		}
	}
	if *profileRules != "" {
		prof := crocus.ProfileRules(profiled)
		prof.Corpus = *corpusName
		prof.TimeoutNS = timeout.Nanoseconds()
		prof.Budget = *budget
		// The table is advisory diagnostics: stderr, so the stdout verdict
		// stream stays byte-stable for the differential CI checks.
		fmt.Fprint(os.Stderr, prof.Render(*profileTop))
		if err := prof.WriteJSONFile(*profileRules); err != nil {
			logger.Warn("hardness profile write failed", slog.String("file", *profileRules), slog.Any("err", err))
		}
	}
	if cache != nil {
		fmt.Println(cache.Stats())
		if err := cache.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "crocus: cache flush:", err)
			if exit == 0 {
				exit = 1
			}
		}
	}
	if interrupted {
		exit = 130
	}
	exportObs(logger, tracer, *traceFile, *traceJSONL, *metrics)
	printFaultSummary(logger)
	os.Exit(exit)
}

// printFaultSummary reports per-site fault-injection hit counts via the
// structured logger when fault injection is armed; chaos runs grep for
// the "faults: " marker in the message to confirm the faults actually
// fired.
func printFaultSummary(log *slog.Logger) {
	if faultinject.Enabled() {
		obs.Or(log).Info(faultinject.Summary())
	}
}

// exportObs writes the requested trace artifacts and prints the metrics
// report. Export failures are structured-log warnings: observability
// output must never change the process's verdicts or exit code.
func exportObs(log *slog.Logger, tracer *obs.Tracer, traceFile, traceJSONL string, metrics bool) {
	if tracer == nil {
		return
	}
	log = obs.Or(log)
	if traceFile != "" {
		if err := tracer.ExportChromeFile(traceFile); err != nil {
			log.Warn("trace export failed", slog.String("file", traceFile), slog.Any("err", err))
		}
	}
	if traceJSONL != "" {
		if err := tracer.ExportJSONLFile(traceJSONL); err != nil {
			log.Warn("trace export failed", slog.String("file", traceJSONL), slog.Any("err", err))
		}
	}
	if metrics {
		fmt.Println()
		fmt.Println("=== metrics ===")
		fmt.Print(tracer.Registry().Render())
		fmt.Println()
		fmt.Println("=== phase breakdown ===")
		fmt.Print(tracer.PhaseBreakdown().Render(40))
	}
	if d := tracer.Dropped(); d > 0 {
		log.Warn("trace spans dropped (event cap)", slog.Int64("dropped", d))
	}
}

// outcomeCounts tallies rule-level outcomes for the sweep summary line.
type outcomeCounts struct {
	total, success, failure, timeout, errored, inapplicable int
}

// addOutcome tallies one rule verdict by its outcome name.
func (c *outcomeCounts) addOutcome(outcome string) {
	c.total++
	switch outcome {
	case crocus.OutcomeSuccess.String():
		c.success++
	case crocus.OutcomeFailure.String():
		c.failure++
	case crocus.OutcomeTimeout.String():
		c.timeout++
	case crocus.OutcomeError.String():
		c.errored++
	case crocus.OutcomeInapplicable.String():
		c.inapplicable++
	}
}

func (c *outcomeCounts) String() string {
	return fmt.Sprintf("success: %d, failure: %d, timeout: %d, error: %d, inapplicable: %d",
		c.success, c.failure, c.timeout, c.errored, c.inapplicable)
}

func loadProgram(corpusName string, files []string) (*crocus.Program, error) {
	if len(files) > 0 {
		names := make([]string, len(files))
		srcs := make([]string, len(files))
		for i, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			names[i] = f
			srcs[i] = string(b)
		}
		return crocus.ParseFiles(names, srcs)
	}
	switch {
	case corpusName == "aarch64":
		return crocus.LoadAarch64Corpus()
	case corpusName == "x64":
		return crocus.LoadX64Corpus()
	case corpusName == "midend":
		return crocus.LoadMidendCorpus()
	case strings.HasPrefix(corpusName, "bug:"):
		id := strings.TrimPrefix(corpusName, "bug:")
		for _, b := range crocus.Bugs() {
			if b.ID == id {
				return crocus.LoadBugCorpus(b)
			}
		}
		return nil, fmt.Errorf("unknown bug %q", id)
	default:
		return nil, fmt.Errorf("unknown corpus %q", corpusName)
	}
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "    " + lines[i]
	}
	return strings.Join(lines, "\n")
}
