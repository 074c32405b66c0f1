// Package eval regenerates every table and figure of the paper's
// evaluation (§4): Table 1's verification results, Figure 4's CDF of
// verification times, the §4.2 rule-coverage percentages, and the §4.3 /
// §4.4 bug reproductions. Each experiment returns structured results plus
// a text rendering shaped like the paper's presentation.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"crocus/internal/clif"
	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
	"crocus/internal/lower"
	"crocus/internal/obs"
	"crocus/internal/vcache"
	"crocus/internal/wasm"
)

// Config controls experiment resources.
type Config struct {
	// Timeout is the per-query solver deadline. The paper ran hard
	// mul/div/popcnt instances for up to 6 hours; any budget reproduces
	// the same *shape* (those instantiations time out, everything else is
	// fast). Default 5s.
	Timeout time.Duration
	// Distinct enables the §3.2.1 distinct-models check during Table 1.
	Distinct bool
	// Parallelism verifies rules concurrently during the Table 1 sweep
	// (0/1 = sequential). Figure 4 always runs sequentially because it
	// measures per-rule isolation times.
	Parallelism int
	// CacheDir enables the incremental-verification result cache for
	// Table 1 and the bug reproductions: a warm re-run replays stored
	// verdicts instead of re-solving, so it is dominated by parse time.
	// Figure 4 never uses the cache (it measures solve times).
	CacheDir string
	// Rules, when non-empty, restricts Table 1 to the named rules (a
	// reduced corpus for quick cold/warm cache experiments and tests).
	Rules []string
	// PropagationBudget bounds SAT work deterministically (0 = unlimited).
	// Unlike Timeout it is machine-independent, so budget-capped runs
	// reproduce bit-identical outcomes; it is part of the cache key.
	PropagationBudget int64
	// RetryBudgets is the timeout-escalation ladder applied to
	// budget-capped runs (see core.Options.RetryBudgets).
	RetryBudgets []int64
	// Journal, when set, records each completed verification unit of the
	// Table 1 sweep so a killed run resumes where it died (see
	// core.Options.Journal). The caller owns open/complete/close.
	Journal *vcache.Journal
}

func (c Config) timeout() time.Duration {
	if c.Timeout == 0 {
		return 5 * time.Second
	}
	return c.Timeout
}

// --------------------------------------------------------------------------
// Table 1

// RuleOutcome is one rule row of the Table 1 computation.
type RuleOutcome struct {
	Name     string
	Insts    []core.InstOutcome
	Duration time.Duration
}

// Table1Result aggregates verification results for rules and type
// instantiations, in the layout of the paper's Table 1.
type Table1Result struct {
	Rules []RuleOutcome

	// Rule-level aggregates.
	TotalRules         int
	SuccessAllTypes    int // every applicable instantiation verified
	SuccessAnyType     int // at least one instantiation verified
	TimeoutAnyType     int
	TimeoutAllTypes    int
	FailureRules       int
	FailureRulesCustom int // failures remaining WITH custom conditions

	// ErrorRules counts rules whose verification faulted (contained
	// panic/pipeline error reported as OutcomeError) instead of deciding.
	ErrorRules int

	// Instantiation-level aggregates.
	TotalInsts        int
	SuccessInsts      int
	TimeoutInsts      int
	InapplicableInsts int
	FailureInsts      int
	ErrorInsts        int

	// Interrupted reports that the sweep was canceled before completing:
	// the result covers only the rules finished by then (TotalRules <
	// ProgramRules) and Render marks the report as partial.
	Interrupted bool
	// ProgramRules is how many rules the corpus sweep set out to verify.
	ProgramRules int

	// Cache holds the run's result-cache probe counters when
	// Config.CacheDir was set (nil otherwise). Deliberately excluded from
	// Render so cold and warm runs produce identical Table 1 output.
	Cache *vcache.Stats
}

// Table1 verifies the full aarch64 integer corpus (96 rules) across all
// type instantiations, first under strict bitvector equivalence and then
// with the corpus's custom verification conditions for the rules that
// need them (§3.2.2).
func Table1(cfg Config) (*Table1Result, error) {
	return Table1Context(context.Background(), cfg)
}

// Table1Context is Table1 under a cancellation context. On cancellation
// it returns the partial result aggregated over the rules completed so
// far (Interrupted set, Render marked PARTIAL) with a nil error, so an
// interrupted run still flushes a usable report — and, with a cache
// configured, every completed unit is already persisted for the next
// run to replay.
func Table1Context(ctx context.Context, cfg Config) (_ *Table1Result, retErr error) {
	sp := obs.Start(ctx, obs.PhaseParse, obs.Str("corpus", "aarch64"))
	prog, err := corpus.LoadAarch64()
	sp.End()
	if err != nil {
		return nil, err
	}
	if len(cfg.Rules) > 0 {
		keep := map[string]bool{}
		for _, n := range cfg.Rules {
			keep[n] = true
		}
		reduced := *prog
		reduced.Rules = nil
		for _, r := range prog.Rules {
			if keep[r.Name] {
				reduced.Rules = append(reduced.Rules, r)
			}
		}
		prog = &reduced
	}
	var cache *vcache.Cache
	if cfg.CacheDir != "" {
		// One store shared by the strict and custom-VC verifiers: their
		// units fingerprint differently wherever the conditions differ,
		// and identically (shared hits) where they don't.
		if cache, err = vcache.Open(cfg.CacheDir); err != nil {
			return nil, err
		}
		// The probe counters are copied into the result before this
		// runs, so closing here never races the caller's reads.
		defer func() {
			if cerr := cache.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("closing result cache: %w", cerr)
			}
		}()
	}
	strict := core.New(prog, core.Options{
		Timeout:           cfg.timeout(),
		DistinctModels:    cfg.Distinct,
		Parallelism:       cfg.Parallelism,
		PropagationBudget: cfg.PropagationBudget,
		RetryBudgets:      cfg.RetryBudgets,
		Cache:             cache,
		Journal:           cfg.Journal,
	})
	custom := core.New(prog, core.Options{
		Timeout:           cfg.timeout(),
		Custom:            corpus.CustomVCs(),
		PropagationBudget: cfg.PropagationBudget,
		RetryBudgets:      cfg.RetryBudgets,
		Cache:             cache,
		Journal:           cfg.Journal,
	})

	res := &Table1Result{ProgramRules: len(prog.Rules)}
	needsCustom := map[string]bool{}
	for _, n := range corpus.FailingWithoutCustomVC() {
		needsCustom[n] = true
	}

	all, verr := strict.VerifyAllContext(ctx)
	if verr != nil {
		if ctx.Err() == nil {
			return nil, fmt.Errorf("verifying: %w", verr)
		}
		// Canceled: aggregate what completed and flag the report partial.
		res.Interrupted = true
	}
	// Aggregate over the completed results (the full sweep, or the
	// ordered prefix-with-gaps an interrupted run finished), keyed by
	// each result's own rule rather than sweep position.
	for _, rr := range all {
		r := rr.Rule
		var dur time.Duration
		for _, io := range rr.Insts {
			dur += io.Duration
		}
		row := RuleOutcome{Name: r.Name, Insts: rr.Insts, Duration: dur}
		res.Rules = append(res.Rules, row)

		res.TotalRules++
		anySuccess, anyTimeout, anyFailure, anyError := false, false, false, false
		allOK := true
		for _, io := range rr.Insts {
			res.TotalInsts++
			switch io.Outcome {
			case core.OutcomeSuccess:
				res.SuccessInsts++
				anySuccess = true
			case core.OutcomeTimeout:
				res.TimeoutInsts++
				anyTimeout = true
				allOK = false
			case core.OutcomeInapplicable:
				res.InapplicableInsts++
			case core.OutcomeFailure:
				res.FailureInsts++
				anyFailure = true
				allOK = false
			case core.OutcomeError:
				res.ErrorInsts++
				anyError = true
				allOK = false
			}
		}
		if anyError {
			res.ErrorRules++
		}
		if anyFailure {
			res.FailureRules++
			// Re-verify with the custom conditions (Table 1's note: "the
			// failures all succeed with custom verification conditions").
			if needsCustom[r.Name] {
				rr2, err := custom.VerifyRuleContext(ctx, r)
				if err != nil {
					if ctx.Err() != nil {
						res.Interrupted = true
						res.FailureRulesCustom++ // unresolved: count conservatively
						continue
					}
					return nil, err
				}
				if !rr2.AllSuccess() {
					res.FailureRulesCustom++
				}
			} else {
				res.FailureRulesCustom++
			}
		}
		if anySuccess {
			res.SuccessAnyType++
		}
		if anySuccess && allOK {
			res.SuccessAllTypes++
		}
		if anyTimeout {
			res.TimeoutAnyType++
		}
		if anyTimeout && !anySuccess {
			res.TimeoutAllTypes++
		}
	}
	if cache != nil {
		s := cache.Stats()
		res.Cache = &s
	}
	return res, nil
}

// PartialHeader is the marker line prepended to every report flushed
// after an interrupt: it states clearly how much of the sweep the
// numbers below actually cover.
func PartialHeader(done, total int) string {
	return fmt.Sprintf("*** PARTIAL REPORT: interrupted after %d/%d rules — totals below cover only completed rules ***\n", done, total)
}

// Render prints the result in the paper's Table 1 layout. An interrupted
// run is prefixed with the PARTIAL marker.
func (t *Table1Result) Render() string {
	var b strings.Builder
	if t.Interrupted {
		b.WriteString(PartialHeader(t.TotalRules, t.ProgramRules))
	}
	fmt.Fprintf(&b, "Table 1: verification results (Wasm 1.0 integer ops -> aarch64)\n")
	fmt.Fprintf(&b, "%-22s %-8s %-32s %-28s %-14s %s\n",
		"", "Total", "Success", "Timeout", "Inapplicable", "Failure")
	fmt.Fprintf(&b, "%-22s %-8d %-32s %-28s %-14s %s\n",
		"Rules", t.TotalRules,
		fmt.Sprintf("%d (all types) / %d (any type)", t.SuccessAllTypes, t.SuccessAnyType),
		fmt.Sprintf("%d (any type) / %d (all types)", t.TimeoutAnyType, t.TimeoutAllTypes),
		"N/A",
		fmt.Sprintf("%d (%d)", t.FailureRules, t.FailureRulesCustom))
	fmt.Fprintf(&b, "%-22s %-8d %-32d %-28d %-14d %s\n",
		"Type Instantiations", t.TotalInsts, t.SuccessInsts, t.TimeoutInsts,
		t.InapplicableInsts,
		fmt.Sprintf("%d (with custom VCs: %d remain)", t.FailureInsts, t.FailureRulesCustom))
	if t.ErrorRules > 0 || t.ErrorInsts > 0 {
		fmt.Fprintf(&b, "Errored (contained engine faults): %d rules / %d instantiations\n",
			t.ErrorRules, t.ErrorInsts)
	}
	return b.String()
}

// --------------------------------------------------------------------------
// Figure 4: CDF of verification times

// CDFPoint is one point of the Figure 4 series.
type CDFPoint struct {
	Seconds  float64
	Fraction float64
}

// Fig4Result holds the per-rule times and the CDF.
type Fig4Result struct {
	// Durations are per-rule wall times, sorted ascending. Rules with
	// timed-out instantiations are split into a terminating and a
	// timed-out part, as in the paper's Figure 4 caption.
	Durations []time.Duration
	TimedOut  int // entries that hit the budget
	Points    []CDFPoint
	// Interrupted reports a canceled run: the CDF covers only
	// MeasuredRules of ProgramRules and Render marks the report partial.
	Interrupted   bool
	MeasuredRules int
	ProgramRules  int
}

// Fig4 measures per-rule verification time in isolation over the Table 1
// corpus and computes the cumulative distribution.
func Fig4(cfg Config) (*Fig4Result, error) {
	return Fig4Context(context.Background(), cfg)
}

// Fig4Context is Fig4 under a cancellation context. On cancellation the
// CDF is computed over the rules measured so far (Interrupted set).
func Fig4Context(ctx context.Context, cfg Config) (*Fig4Result, error) {
	sp := obs.Start(ctx, obs.PhaseParse, obs.Str("corpus", "aarch64"))
	prog, err := corpus.LoadAarch64()
	sp.End()
	if err != nil {
		return nil, err
	}
	v := core.New(prog, core.Options{
		Timeout: cfg.timeout(),
		Custom:  corpus.CustomVCs(),
	})
	res := &Fig4Result{ProgramRules: len(prog.Rules)}
	for _, r := range prog.Rules {
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		var terminating time.Duration
		var timedOut time.Duration
		hasTerm, hasTO := false, false
		for _, sig := range v.Sigs(r) {
			io, err := v.VerifyInstantiationContext(ctx, r, sig)
			if err != nil {
				if ctx.Err() != nil {
					res.Interrupted = true
					break
				}
				return nil, err
			}
			if io.Outcome == core.OutcomeTimeout {
				timedOut += io.Duration
				hasTO = true
			} else {
				terminating += io.Duration
				hasTerm = true
			}
		}
		if res.Interrupted {
			// Mid-rule cancellation: drop the incomplete rule's partial
			// timings rather than skew the CDF.
			break
		}
		if hasTerm {
			res.Durations = append(res.Durations, terminating)
		}
		if hasTO {
			res.Durations = append(res.Durations, timedOut)
			res.TimedOut++
		}
		res.MeasuredRules++
	}
	sort.Slice(res.Durations, func(i, j int) bool { return res.Durations[i] < res.Durations[j] })
	n := len(res.Durations)
	for i, d := range res.Durations {
		res.Points = append(res.Points, CDFPoint{
			Seconds:  d.Seconds(),
			Fraction: float64(i+1) / float64(n),
		})
	}
	return res, nil
}

// Render prints the CDF as a text table plus percentile summary.
func (f *Fig4Result) Render() string {
	var b strings.Builder
	if f.Interrupted {
		b.WriteString(PartialHeader(f.MeasuredRules, f.ProgramRules))
	}
	b.WriteString("Figure 4: CDF of verification times (per rule, in isolation)\n")
	pct := func(p float64) time.Duration {
		if len(f.Durations) == 0 {
			return 0
		}
		i := int(p*float64(len(f.Durations))) - 1
		if i < 0 {
			i = 0
		}
		return f.Durations[i]
	}
	fmt.Fprintf(&b, "tests: %d (rules with timeouts split in two, as in the paper)\n", len(f.Durations))
	fmt.Fprintf(&b, "p50 = %v   p90 = %v   p99 = %v   max = %v   timed out: %d\n",
		pct(0.50).Round(time.Millisecond), pct(0.90).Round(time.Millisecond),
		pct(0.99).Round(time.Millisecond), pct(1.0).Round(time.Millisecond), f.TimedOut)
	b.WriteString("seconds,cdf\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%.3f,%.4f\n", p.Seconds, p.Fraction)
	}
	return b.String()
}

// --------------------------------------------------------------------------
// §4.2 coverage

// CoverageResult is the §4.2 measurement for one suite.
type CoverageResult struct {
	Suite           string
	Functions       int
	InvokedUnique   int
	VerifiedInvoked int
	FiredCounts     map[string]int
}

// Percent returns the verified share of invoked unique rules.
func (c *CoverageResult) Percent() float64 {
	if c.InvokedUnique == 0 {
		return 0
	}
	return 100 * float64(c.VerifiedInvoked) / float64(c.InvokedUnique)
}

// Coverage runs the instrumented instruction selector over both §4.2
// workloads and reports, per suite, the proportion of invoked unique
// rules that fall in Crocus's verified set.
func Coverage() ([]*CoverageResult, error) {
	prog, err := corpus.LoadCoverage()
	if err != nil {
		return nil, err
	}
	verified, err := corpus.VerifiedRuleNames()
	if err != nil {
		return nil, err
	}

	run := func(suite string, funcs []*clif.Func) (*CoverageResult, error) {
		eng := lower.New(prog)
		for _, f := range funcs {
			if err := eng.LowerFunc(f); err != nil {
				return nil, fmt.Errorf("%s: lowering %s: %w", suite, f.Name, err)
			}
		}
		fired := eng.Fired()
		res := &CoverageResult{Suite: suite, Functions: len(funcs), FiredCounts: fired}
		for name := range fired {
			res.InvokedUnique++
			if verified[name] {
				res.VerifiedInvoked++
			}
		}
		return res, nil
	}

	ref, err := wasm.ReferenceSuite()
	if err != nil {
		return nil, err
	}
	wasmRes, err := run("wasm-reference", ref.Funcs)
	if err != nil {
		return nil, err
	}
	narrowRes, err := run("narrow-types (rustc_codegen_cranelift stand-in)", wasm.NarrowSuite())
	if err != nil {
		return nil, err
	}
	return []*CoverageResult{wasmRes, narrowRes}, nil
}

// RenderCoverage prints the §4.2 numbers.
func RenderCoverage(rs []*CoverageResult) string {
	var b strings.Builder
	b.WriteString("§4.2: proportion of invoked unique ISLE rules in Crocus's verified set\n")
	for _, r := range rs {
		fmt.Fprintf(&b, "  %-45s %4d funcs   verified %d / %d invoked = %.1f%%\n",
			r.Suite, r.Functions, r.VerifiedInvoked, r.InvokedUnique, r.Percent())
	}
	return b.String()
}

// --------------------------------------------------------------------------
// §4.3 / §4.4 bug reproductions

// BugResult reports one reproduced defect.
type BugResult struct {
	Bug      corpus.Bug
	Detected bool
	Details  []string
	Duration time.Duration
}

// Bugs reproduces every §4.3 and §4.4 defect: each buggy rule must
// produce its expected outcome (counterexample, single-model warning, or
// verified-as-intended contrast).
func Bugs(cfg Config) ([]*BugResult, error) {
	out, _, err := BugsStats(cfg)
	return out, err
}

// BugsStats is Bugs plus the run's result-cache probe counters (nil when
// Config.CacheDir is unset).
func BugsStats(cfg Config) ([]*BugResult, *vcache.Stats, error) {
	return BugsStatsContext(context.Background(), cfg)
}

// BugsStatsContext is BugsStats under a cancellation context. On
// cancellation it returns the reproductions completed so far together
// with ctx.Err().
func BugsStatsContext(ctx context.Context, cfg Config) (_ []*BugResult, _ *vcache.Stats, retErr error) {
	var cache *vcache.Cache
	if cfg.CacheDir != "" {
		c, err := vcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, nil, err
		}
		cache = c
		defer func() {
			if cerr := cache.Close(); cerr != nil && retErr == nil {
				retErr = fmt.Errorf("closing result cache: %w", cerr)
			}
		}()
	}
	var out []*BugResult
	for _, bug := range corpus.Bugs() {
		if cerr := ctx.Err(); cerr != nil {
			return out, nil, cerr
		}
		start := time.Now()
		sp := obs.Start(ctx, obs.PhaseParse, obs.Str("corpus", bug.ID))
		prog, err := corpus.LoadBug(bug)
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		v := core.New(prog, core.Options{
			Timeout:           cfg.timeout(),
			DistinctModels:    bug.DistinctModels,
			PropagationBudget: cfg.PropagationBudget,
			RetryBudgets:      cfg.RetryBudgets,
			Cache:             cache,
		})
		res := &BugResult{Bug: bug, Detected: true}
		names := make([]string, 0, len(bug.Expect))
		for n := range bug.Expect {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, name := range names {
			want := bug.Expect[name]
			rule := findRule(prog.Rules, name)
			if rule == nil {
				return nil, nil, fmt.Errorf("bug %s: rule %s not found", bug.ID, name)
			}
			rr, err := v.VerifyRuleContext(ctx, rule)
			if err != nil {
				if ctx.Err() != nil {
					return out, nil, ctx.Err()
				}
				return nil, nil, err
			}
			got := rr.Outcome()
			ok := got == want
			detail := fmt.Sprintf("%-28s want %-12s got %-12s", name, want, got)
			if bug.DistinctModels && want == core.OutcomeSuccess {
				// §4.4.2: detection is the single-model warning.
				single := false
				for _, io := range rr.Insts {
					if io.DistinctInputs != nil && !*io.DistinctInputs {
						single = true
					}
				}
				ok = ok && single
				detail += fmt.Sprintf("  single-model-warning=%v", single)
			}
			if got == core.OutcomeFailure {
				for _, io := range rr.Insts {
					if io.Counterexample != nil {
						detail += "\n" + indent(io.Counterexample.Rendered, "      ")
						break
					}
				}
			}
			if !ok {
				res.Detected = false
			}
			res.Details = append(res.Details, detail)
		}
		res.Duration = time.Since(start)
		out = append(out, res)
	}
	var stats *vcache.Stats
	if cache != nil {
		s := cache.Stats()
		stats = &s
	}
	return out, stats, nil
}

func findRule(rules []*isle.Rule, name string) *isle.Rule {
	for _, r := range rules {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// RenderBugs prints the reproduction report.
func RenderBugs(rs []*BugResult) string {
	var b strings.Builder
	b.WriteString("§4.3/§4.4 bug reproductions\n")
	for _, r := range rs {
		status := "REPRODUCED"
		if !r.Detected {
			status = "NOT REPRODUCED"
		}
		fmt.Fprintf(&b, "[%s] §%s %s (%v)\n    %s\n", status, r.Bug.Section, r.Bug.Title,
			r.Duration.Round(time.Millisecond), r.Bug.ID)
		for _, d := range r.Details {
			fmt.Fprintf(&b, "    %s\n", d)
		}
	}
	return b.String()
}

func indent(s, pad string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = pad + lines[i]
	}
	return strings.Join(lines, "\n")
}
