package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/sched"
	"crocus/internal/smt"
	"crocus/internal/vcache"
)

// Outcome classifies a verification attempt, mirroring §3.2's three
// outcomes plus resource exhaustion (the paper's §4.1 timeouts) and
// contained engine faults.
type Outcome int

// Verification outcomes.
const (
	OutcomeSuccess      Outcome = iota // the rule is verified
	OutcomeInapplicable                // the rule never matches this instantiation
	OutcomeFailure                     // counterexample found
	OutcomeTimeout                     // solver resource limit reached
	OutcomeError                       // contained engine fault (panic or pipeline error)
)

func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeInapplicable:
		return "inapplicable"
	case OutcomeFailure:
		return "failure"
	case OutcomeTimeout:
		return "timeout"
	case OutcomeError:
		return "error"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// VCContext gives custom verification conditions access to the elaborated
// rule: the builder, both results, and the rule's variable values.
type VCContext struct {
	B         *smt.Builder
	LHSResult smt.TermID
	RHSResult smt.TermID
	// Var returns the SMT term bound to an ISLE rule variable.
	Var func(name string) (smt.TermID, bool)
}

// CustomVC replaces or augments the default bitvector-equality condition
// for rules whose context intentionally breaks strict equivalence (§3.2.2,
// e.g. comparison rules producing flags and a condition code).
type CustomVC struct {
	// Condition, when non-nil, replaces result_LHS = result_RHS in Eq. 3.
	Condition func(ctx *VCContext) (smt.TermID, error)
	// Assumptions, when non-nil, contributes the A_n of Eq. 3 (e.g.
	// encodings of ISLE priority semantics).
	Assumptions func(ctx *VCContext) ([]smt.TermID, error)
}

// Options configures a Verifier.
type Options struct {
	// Timeout bounds each SMT query; zero means no limit. Queries that
	// exceed it yield OutcomeTimeout (the paper's mul/div/popcnt cases).
	Timeout time.Duration
	// PropagationBudget optionally bounds SAT work deterministically
	// (useful in tests); 0 = unlimited.
	PropagationBudget int64
	// RetryBudgets is the timeout-escalation ladder: a unit that exhausts
	// the base PropagationBudget (OutcomeTimeout) is re-solved at each
	// listed budget in turn until it decides or the ladder is exhausted.
	// Rungs should ascend; a rung not more generous than the previous
	// attempt's budget is skipped, and a 0 rung means unlimited (final).
	// Each attempt re-derives a fresh Options.Timeout deadline and its SAT
	// statistics accumulate into the unit's totals; the final attempt's
	// deadline and budget are what the vcache entry records, so staleness
	// logic keeps working across runs. The ladder only engages when the
	// base PropagationBudget is finite (> 0).
	RetryBudgets []int64
	// DistinctModels enables the optional §3.2.1 check that at least two
	// distinct input assignments match the rule.
	DistinctModels bool
	// Custom maps rule names to custom verification conditions.
	Custom map[string]*CustomVC
	// Parallelism sizes the transient FIFO worker pool (internal/sched)
	// that verification runs its units on when no Scheduler is injected:
	// min(Parallelism, units) workers, at least one (0 or 1 = one
	// worker). The unit of scheduling is one (rule, type instantiation)
	// solve, so one timeout-tail rule no longer serializes a sweep;
	// results keep source order regardless of execution order. The CLIs
	// normalize values <= 0 to runtime.NumCPU() before constructing
	// Options; the daemon leaves Parallelism unset and injects Scheduler.
	Parallelism int
	// Cache enables the incremental-verification result cache
	// (internal/vcache): verification units whose content fingerprint is
	// already stored are replayed instead of re-solved, and fresh results
	// are written through to the store. nil = no caching. The store's
	// lifetime belongs to the caller (vcache.Open, then Close), so one
	// store can serve several verifiers in a run.
	Cache *vcache.Cache
	// Scheduler injects a shared FIFO worker pool to run verification
	// units on instead of a per-sweep transient pool — long-running
	// hosts (crocus-serve) size one pool at admission capacity and
	// schedule every request's units onto it, so -max-inflight admission
	// and unit scheduling share a single queue. The pool's lifetime
	// belongs to the caller.
	Scheduler *sched.Pool
	// NoStructHash disables structural hashing (gate-level node sharing)
	// in the bit-blaster. Verdicts never change; clause and variable
	// counts do.
	NoStructHash bool
}

// Verifier verifies the rules of an ISLE program against their
// annotations.
type Verifier struct {
	Prog *isle.Program
	Opts Options
}

// New creates a Verifier over a typechecked program.
func New(prog *isle.Program, opts Options) *Verifier {
	return &Verifier{Prog: prog, Opts: opts}
}

// Counterexample is a failing model lifted back to ISLE surface syntax
// (§3.3: "Crocus lifts counterexamples from the SMT model back into ISLE
// syntax to make debugging easier").
type Counterexample struct {
	Inputs   map[string]smt.Value // ISLE LHS variables
	LHSValue smt.Value
	RHSValue smt.Value
	Rendered string // paper-style annotated rule text
}

// SolverStats are cumulative SAT search statistics across a verification
// unit's queries (applicability, distinctness, equivalence). The
// propagation/conflict/decision counts are per-query deltas of the
// unit's session, summed over its queries. The JSON tags are the
// daemon's wire form; the result cache stores the same counters as
// vcache.SolverStats, whose field list must stay identical.
type SolverStats struct {
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	// Restarts counts CDCL restarts across the unit's queries; the
	// rule-hardness profiler uses it to separate "search thrashing"
	// timeouts from steady propagation grinds.
	Restarts int64 `json:"restarts,omitempty"`
	// Queries is the number of SMT queries issued.
	Queries int64 `json:"queries"`
	// StructHashMerged counts the gate allocations structural hashing
	// avoided across the unit's queries.
	StructHashMerged int64 `json:"structhash_merged,omitempty"`
}

// Add accumulates other into s.
func (s *SolverStats) Add(other SolverStats) {
	s.Propagations += other.Propagations
	s.Conflicts += other.Conflicts
	s.Decisions += other.Decisions
	s.Restarts += other.Restarts
	s.Queries += other.Queries
	s.StructHashMerged += other.StructHashMerged
}

func (s *SolverStats) addResult(r smt.Result) {
	s.Propagations += r.Propagations
	s.Conflicts += r.Conflicts
	s.Decisions += r.Decisions
	s.Restarts += r.Restarts
	s.Queries++
	s.StructHashMerged += r.StructHashMerged
}

// String renders the stats in the -stats flag's layout.
func (s SolverStats) String() string {
	out := fmt.Sprintf("props=%d conflicts=%d decisions=%d queries=%d",
		s.Propagations, s.Conflicts, s.Decisions, s.Queries)
	if s.StructHashMerged != 0 {
		out += fmt.Sprintf(" merged=%d", s.StructHashMerged)
	}
	return out
}

// InstOutcome is the verification result for one (rule, type
// instantiation) pair — one row contribution to Table 1.
type InstOutcome struct {
	Sig            *isle.Sig
	Outcome        Outcome
	Counterexample *Counterexample
	// DistinctInputs is set by the optional distinct-models check: false
	// means the rule admits exactly one matching input assignment
	// (the §4.4.2 "rule never fires meaningfully" signal).
	DistinctInputs *bool
	Duration       time.Duration
	// Assignments is how many type assignments monomorphization produced.
	Assignments int
	// Stats are the unit's cumulative SAT statistics (replayed from the
	// cache on a hit).
	Stats SolverStats
	// Cached reports that this outcome was served from the result cache
	// without solving.
	Cached bool
	// Key is the unit's vcache content fingerprint, under which its
	// verdict is stored: empty for a unit with no type assignment, or
	// when no cache is configured. ReplayRule takes these keys back.
	Key string
	// Escalations counts the timeout-escalation retries the unit consumed
	// (0 = decided, or still timed out, at the base budget).
	Escalations int
	// Err carries the contained fault for OutcomeError outcomes —
	// typically a *PanicError diagnostics bundle.
	Err error
}

// RuleResult aggregates the per-instantiation outcomes of one rule.
type RuleResult struct {
	Rule  *isle.Rule
	Insts []InstOutcome
	// RetriedFresh reports that a unit's first attempt faulted and its
	// outcome came from the retry, which solves on a new session.
	RetriedFresh bool
}

// Outcome summarizes the rule across instantiations: failure dominates,
// then contained error, then timeout, then success; a rule with no
// applicable instantiation is inapplicable.
func (rr *RuleResult) Outcome() Outcome {
	agg := OutcomeInapplicable
	for _, io := range rr.Insts {
		switch io.Outcome {
		case OutcomeFailure:
			return OutcomeFailure
		case OutcomeError:
			agg = OutcomeError
		case OutcomeTimeout:
			if agg != OutcomeError {
				agg = OutcomeTimeout
			}
		case OutcomeSuccess:
			if agg != OutcomeTimeout && agg != OutcomeError {
				agg = OutcomeSuccess
			}
		}
	}
	return agg
}

// AllSuccess reports whether every instantiation that applies verified.
func (rr *RuleResult) AllSuccess() bool {
	any := false
	for _, io := range rr.Insts {
		switch io.Outcome {
		case OutcomeFailure, OutcomeTimeout, OutcomeError:
			return false
		case OutcomeSuccess:
			any = true
		}
	}
	return any
}

// Sigs returns the type instantiations to verify rule against: the
// registered instantiations of its instruction root, or a single
// unconstrained instantiation when the root is not instantiated (mid-end
// rules).
func (v *Verifier) Sigs(rule *isle.Rule) []*isle.Sig {
	ir := v.Prog.FindIRTerm(rule.LHS)
	if ir == nil {
		return []*isle.Sig{nil}
	}
	sigs := v.Prog.Insts[ir.Name]
	out := make([]*isle.Sig, len(sigs))
	for i := range sigs {
		out[i] = &sigs[i]
	}
	return out
}

// VerifyRule verifies one rule across all of its type instantiations.
// Equivalent to VerifyRuleContext with a background context.
func (v *Verifier) VerifyRule(rule *isle.Rule) (*RuleResult, error) {
	return v.VerifyRuleContext(context.Background(), rule)
}

// VerifyRuleContext is VerifyRule under a cancellation context. The
// rule's units run like a sweep's (see VerifyAllContext): a panicking
// unit is retried once and, if the panic persists, reported as that
// unit's OutcomeError carrying a *PanicError diagnostics bundle. A unit
// fault that persists and is not a panic (malformed corpus, missing
// annotation) is returned as the error. A canceled context returns
// ctx.Err() with no result; nothing partial is cached.
func (v *Verifier) VerifyRuleContext(ctx context.Context, rule *isle.Rule) (*RuleResult, error) {
	rr := v.VerifyRuleContained(ctx, rule)
	if rr == nil {
		return nil, ctx.Err()
	}
	for _, io := range rr.Insts {
		if io.Outcome == OutcomeError && io.Err != nil && !isPanicErr(io.Err) {
			return nil, io.Err
		}
	}
	return rr, nil
}

// VerifyRuleContained verifies one rule with sweep-grade fault
// isolation: every persisting unit fault, panic or plain error, degrades
// to that unit's OutcomeError so the caller's loop survives poisoned
// inputs. It returns nil only when the context was canceled before the
// rule completed. Exported for long-running hosts (crocus-serve) that
// keep a resident Verifier and dispatch individual rules per request.
func (v *Verifier) VerifyRuleContained(ctx context.Context, rule *isle.Rule) *RuleResult {
	rs := v.verifyRules(ctx, []*isle.Rule{rule})
	if len(rs) == 0 {
		return nil
	}
	return rs[0]
}

// VerifyAll verifies every rule in the program, in source order.
// Equivalent to VerifyAllContext with a background context.
func (v *Verifier) VerifyAll() ([]*RuleResult, error) {
	return v.VerifyAllContext(context.Background())
}

// VerifyAllContext verifies every rule in the program, in source order,
// under a cancellation context. Rules are expanded into verification
// units that run on Options.Scheduler, or on a transient pool of
// Options.Parallelism workers; results keep source order.
//
// The sweep is fault-isolated: a unit whose verification panics or
// errors yields an OutcomeError outcome (see VerifyRuleContained)
// instead of aborting the run. On cancellation the completed results
// are returned — still in source order, incomplete rules omitted —
// together with ctx.Err(); every completed unit is already flushed to
// the result cache, so an immediate re-run resumes from cache hits.
func (v *Verifier) VerifyAllContext(ctx context.Context) ([]*RuleResult, error) {
	return v.verifyRules(ctx, v.Prog.Rules), ctx.Err()
}

// solverConfig is the per-query configuration for standalone queries
// (interpreter and overlap analysis); verification units use
// unitConfig, which pins one deadline for the whole unit.
func (v *Verifier) solverConfig() smt.Config {
	cfg := smt.Config{
		PropagationBudget: v.Opts.PropagationBudget,
		NoStructHash:      v.Opts.NoStructHash,
	}
	if v.Opts.Timeout > 0 {
		cfg.Deadline = time.Now().Add(v.Opts.Timeout)
	}
	return cfg
}

// unitConfig builds the solver configuration for one verification-unit
// attempt: a single unit-level deadline derived once (a unit with many
// assignments no longer accumulates N × Timeout wall clock across its
// queries), the attempt's propagation budget, and the cancellation
// context.
func (v *Verifier) unitConfig(ctx context.Context, budget int64) smt.Config {
	cfg := smt.Config{
		Ctx:               ctx,
		PropagationBudget: budget,
		NoStructHash:      v.Opts.NoStructHash,
	}
	if v.Opts.Timeout > 0 {
		cfg.Deadline = time.Now().Add(v.Opts.Timeout)
	}
	return cfg
}

// VerifyInstantiation runs the full §3.2 pipeline for one rule and type
// instantiation: monomorphize, elaborate, applicability query (Eq. 1),
// optional distinct-models check, and equivalence query (Eq. 2/3).
//
// When a result cache is configured (Options.Cache), the prepared
// queries are fingerprinted first and a stored verdict for the same
// content is replayed instead of solved; fresh verdicts are recorded
// afterwards. Cached timeouts are retried when the current
// Options.Timeout (or escalation-ladder budget) is more generous than
// the one they were tried under.
func (v *Verifier) VerifyInstantiation(rule *isle.Rule, sig *isle.Sig) (*InstOutcome, error) {
	return v.VerifyInstantiationContext(context.Background(), rule, sig)
}

// VerifyInstantiationContext is VerifyInstantiation under a cancellation
// context.
func (v *Verifier) VerifyInstantiationContext(ctx context.Context, rule *isle.Rule, sig *isle.Sig) (*InstOutcome, error) {
	return v.verifyInstantiation(ctx, rule, sig)
}

// ladderMaxBudget returns the most generous propagation budget this
// configuration would spend on a unit: the top of the escalation ladder,
// or the base budget without one (0 = unlimited).
func (v *Verifier) ladderMaxBudget() int64 {
	b := v.Opts.PropagationBudget
	if b <= 0 {
		return 0
	}
	for _, r := range v.Opts.RetryBudgets {
		if r == 0 {
			return 0
		}
		if r > b {
			b = r
		}
	}
	return b
}

// verifyInstantiation is VerifyInstantiationContext. The unit owns its
// builder and, on a cache miss, one smt.Session over it that serves every
// query of the unit — each assignment's applicability, distinctness and
// equivalence queries and every escalation rung — and is dropped when
// the unit ends. No solver state crosses a unit boundary, so a unit's
// verdict, counterexample and SAT work depend on the unit alone, never
// on scheduling.
func (v *Verifier) verifyInstantiation(ctx context.Context, rule *isle.Rule, sig *isle.Sig) (*InstOutcome, error) {
	start := time.Now()
	io := &InstOutcome{Sig: sig}
	defer func() { io.Duration = time.Since(start) }()
	sc := obs.Get(ctx)

	spM := sc.Start(obs.PhaseMonomorphize)
	ra, assigns, err := v.monomorphize(rule, sig)
	spM.SetAttr(obs.Int("assignments", int64(len(assigns))))
	spM.End()
	if err != nil {
		return nil, err
	}
	io.Assignments = len(assigns)
	if len(assigns) == 0 {
		io.Outcome = OutcomeInapplicable
		return io, nil
	}

	// Elaborate every assignment into the unit's one builder, each under
	// its content-derived scope.
	b := smt.NewBuilder()
	spE := sc.Start(obs.PhaseElaborate, obs.Int("assignments", int64(len(assigns))))
	preps := make([]*prepared, len(assigns))
	for i, a := range assigns {
		if preps[i], err = v.prepareAssignment(ra, a, b, unitScope(sig, i)); err != nil {
			spE.End()
			return nil, err
		}
	}
	spE.End()

	cache := v.Opts.Cache
	if cache != nil && v.replayUnit(sc, "", preps, io) {
		return io, nil
	}

	// Base attempt, then the timeout-escalation ladder: re-solve the
	// whole unit at each more generous budget until it decides. Stats
	// accumulate across attempts; the final attempt's budget is what the
	// cache entry records. The session is opened only now, after the
	// cache probe, so a hit never builds a solver.
	sess := smt.NewSession(b)
	budget := v.Opts.PropagationBudget
	spA := sc.Start(obs.PhaseAttempt, obs.Int("budget", budget))
	out, err := v.solveUnit(ctx, sess, preps, io, budget)
	spA.SetAttr(obs.Str("outcome", out.String()))
	spA.End()
	if err != nil {
		return nil, err
	}
	if out == OutcomeTimeout && budget > 0 {
		for _, rung := range v.Opts.RetryBudgets {
			if rung != 0 && rung <= budget {
				continue // not more generous than the last attempt
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			budget = rung
			spR := sc.Start(obs.PhaseEscalation,
				obs.Int("budget", budget), obs.Int("rung", int64(io.Escalations+1)))
			out, err = v.solveUnit(ctx, sess, preps, io, budget)
			spR.SetAttr(obs.Str("outcome", out.String()))
			spR.End()
			if err != nil {
				return nil, err
			}
			io.Escalations++
			sc.Registry().Counter("escalation.attempts").Inc()
			if out != OutcomeTimeout || budget == 0 {
				break
			}
		}
	}
	io.Outcome = out

	// A cancellation that surfaced as Unknown mid-unit must not be
	// recorded as a timeout verdict.
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	v.recordOutcome(cache, io.Key, rule, sig, io, budget, time.Since(start))
	return io, nil
}

// replayUnit is the cache probe of one unit with assignments, in its
// cache.probe span: it fingerprints preps unless the caller already has
// the unit's key, records the key in io.Key, and looks it up under this
// configuration's Timeout and the top of its escalation ladder. On a
// hit it replays the stored entry into io and reports true. An
// undecodable entry degrades to a miss: the caller re-solves and the
// fresh result overwrites it, and the failure is counted so cache
// degradation is observable (`crocus -stats`).
func (v *Verifier) replayUnit(sc *obs.SpanContext, key string, preps []*prepared, io *InstOutcome) bool {
	sp := sc.Start(obs.PhaseCacheProbe)
	if key == "" {
		key = v.fingerprint(preps)
	}
	io.Key = key
	e, st := v.Opts.Cache.LookupBudget(key, v.Opts.Timeout, v.ladderMaxBudget())
	sp.SetAttr(obs.Str("status", st.String()))
	sp.End()
	sc.Registry().Counter("vcache." + st.String()).Inc()
	if st != vcache.Hit {
		return false
	}
	if err := applyEntry(e, io); err != nil {
		v.Opts.Cache.NoteDecodeFailure()
		sc.Registry().Counter("vcache.decode_failure").Inc()
		return false
	}
	return true
}

// ReplayRule answers rule from the result cache alone. keys holds the
// vcache key of each of the rule's units in Sigs(rule) order, as the
// InstOutcome.Key fields of a completed result of a verifier with the
// same options record them, with "" for a unit that has no type
// assignment. It runs no monomorphize, elaborate or fingerprint pass
// and schedules nothing: each key is looked up under this verifier's
// Timeout and ladder, exactly as verifyInstantiation's probe would
// look it up. The result is what VerifyRuleContained returns when the
// cache holds a hit for every unit, durations aside. ReplayRule returns
// nil when a unit is not a hit or ctx is done; the caller then takes
// the full path.
func (v *Verifier) ReplayRule(ctx context.Context, rule *isle.Rule, keys []string) *RuleResult {
	sigs := v.Sigs(rule)
	if v.Opts.Cache == nil || len(keys) != len(sigs) || ctx.Err() != nil {
		return nil
	}
	sc := obs.Get(obs.WithScope(ctx, rule.Name))
	rr := &RuleResult{Rule: rule, Insts: make([]InstOutcome, len(sigs))}
	for i, sig := range sigs {
		start := time.Now()
		io := &rr.Insts[i]
		io.Sig = sig
		if keys[i] == "" {
			io.Outcome = OutcomeInapplicable
		} else if !v.replayUnit(sc, keys[i], nil, io) {
			return nil
		}
		io.Duration = time.Since(start)
	}
	return rr
}

// querier decides one query over a unit's builder. Verification passes
// the unit's *smt.Session; the differential tests pass a one-shot solver
// per query (smt.Check) as the reference it must agree with.
type querier interface {
	Check(assertions []smt.TermID, cfg smt.Config) (smt.Result, error)
}

// solveUnit decides every prepared assignment of one unit at the given
// propagation budget under a single unit-level deadline, accumulating
// statistics and the distinct-models verdict into io. On failure it sets
// io.Counterexample. It returns the unit's aggregate outcome.
func (v *Verifier) solveUnit(ctx context.Context, sess querier, preps []*prepared, io *InstOutcome, budget int64) (Outcome, error) {
	cfg := v.unitConfig(ctx, budget)
	agg := OutcomeInapplicable
	for _, p := range preps {
		out, cex, distinct, err := v.solvePrepared(ctx, sess, p, io, cfg)
		if err != nil {
			return 0, err
		}
		if distinct != nil && (io.DistinctInputs == nil || !*distinct) {
			io.DistinctInputs = distinct
		}
		if out == OutcomeFailure {
			io.Counterexample = cex
			return OutcomeFailure, nil
		}
		switch out {
		case OutcomeTimeout:
			agg = OutcomeTimeout
		case OutcomeSuccess:
			if agg != OutcomeTimeout {
				agg = OutcomeSuccess
			}
		}
	}
	return agg, nil
}

// solvePrepared decides one prepared assignment on the unit's session,
// accumulating SAT statistics into io.
func (v *Verifier) solvePrepared(ctx context.Context, sess querier, p *prepared, io *InstOutcome, cfg smt.Config) (Outcome, *Counterexample, *bool, error) {
	el, b := p.el, p.el.b
	sc := obs.Get(ctx)
	// query wraps one of the unit's three SMT queries in its named span,
	// tagging the result status.
	query := func(phase string, assertions []smt.TermID) (smt.Result, error) {
		sp := sc.Start(phase)
		res, err := sess.Check(assertions, cfg)
		if err == nil {
			sp.SetAttr(obs.Str("status", res.Status.String()))
		}
		sp.End()
		return res, err
	}

	// Query 1 (Eq. 1): applicability — P_LHS ∧ R_LHS ∧ P_RHS satisfiable?
	res, err := query(obs.PhaseQueryApp, p.base)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("applicability query: %w", err)
	}
	io.Stats.addResult(res)
	if cerr := ctx.Err(); cerr != nil {
		return 0, nil, nil, cerr
	}
	switch res.Status {
	case smt.UnsatRes:
		return OutcomeInapplicable, nil, nil, nil
	case smt.Unknown:
		return OutcomeTimeout, nil, nil, nil
	}

	// Optional distinct-models check (§3.2.1): does a second model exist in
	// which every bitvector input differs from the first model's value? If
	// not, the rule matches only one set of inputs (§4.4.2's signal).
	var distinct *bool
	if v.Opts.DistinctModels && len(el.inputs) > 0 {
		var diffs []smt.TermID
		for _, in := range el.inputs {
			name := b.Term(in).Name
			if val, ok := res.Model.Value(name); ok {
				diffs = append(diffs, b.Distinct(in, b.BVConst(val.Bits, b.SortOf(in).Width)))
			}
		}
		if len(diffs) > 0 {
			q := append(append([]smt.TermID{}, p.base...), b.And(diffs...))
			dres, err := query(obs.PhaseQueryDist, q)
			if err != nil {
				return 0, nil, nil, fmt.Errorf("distinctness query: %w", err)
			}
			io.Stats.addResult(dres)
			if dres.Status != smt.Unknown {
				d := dres.Status == smt.SatRes
				distinct = &d
			}
		}
	}

	// Query 2 (Eq. 2/3): equivalence — search for a counterexample where
	// the preconditions hold but the condition or an RHS require fails.
	q2 := append(append([]smt.TermID{}, p.base...), b.Not(p.goal))
	res2, err := query(obs.PhaseQueryEquiv, q2)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("equivalence query: %w", err)
	}
	io.Stats.addResult(res2)
	switch res2.Status {
	case smt.Unknown:
		return OutcomeTimeout, nil, distinct, nil
	case smt.UnsatRes:
		return OutcomeSuccess, nil, distinct, nil
	}

	cex, err := v.buildCounterexample(el.ra, el, res2.Model)
	if err != nil {
		return 0, nil, nil, err
	}
	return OutcomeFailure, cex, distinct, nil
}

// buildCounterexample lifts a failing model back into ISLE surface syntax
// in the paper's presentation: the rule with `[var|#value]` bindings and a
// final `lhs => rhs` value line.
func (v *Verifier) buildCounterexample(ra *ruleAnalysis, el *elaboration, m *smt.Model) (*Counterexample, error) {
	env := m.Env()
	cex := &Counterexample{Inputs: map[string]smt.Value{}}
	for _, name := range ra.lhsVars {
		t, ok := el.varVal[name]
		if !ok {
			continue
		}
		if val, ok := m.Value(el.b.Term(t).Name); ok {
			cex.Inputs[name] = val
		}
	}
	lv, err := el.b.Eval(el.LHSResult, env)
	if err != nil {
		return nil, fmt.Errorf("evaluating LHS under model: %w", err)
	}
	rv, err := el.b.Eval(el.RHSResult, env)
	if err != nil {
		return nil, fmt.Errorf("evaluating RHS under model: %w", err)
	}
	cex.LHSValue = lv
	cex.RHSValue = rv

	var sb strings.Builder
	renderNode(&sb, ra, el, m, ra.rule.LHS)
	sb.WriteString(" =>\n")
	renderNode(&sb, ra, el, m, ra.rule.RHS)
	fmt.Fprintf(&sb, "\n\n%s => %s", lv, rv)
	cex.Rendered = sb.String()
	return cex, nil
}

// renderNode prints a rule tree with model values attached to variables.
func renderNode(sb *strings.Builder, ra *ruleAnalysis, el *elaboration, m *smt.Model, n *isle.TermNode) {
	switch n.Kind {
	case isle.NVar:
		slot := ra.nodeSlot[n]
		if ra.ts.kindOf(slot) == kInt {
			if iv, ok := el.a.intValOf(slot); ok {
				fmt.Fprintf(sb, "[%s|%d]", n.Name, iv)
				return
			}
		}
		if t, ok := el.varVal[n.Name]; ok {
			if val, ok := m.Value(el.b.Term(t).Name); ok {
				fmt.Fprintf(sb, "[%s|%s]", n.Name, val)
				return
			}
		}
		sb.WriteString(n.Name)
	case isle.NWildcard:
		sb.WriteString("_")
	case isle.NConst:
		sb.WriteString(n.String())
	case isle.NLet:
		sb.WriteString("(let (")
		for i, b := range n.Lets {
			if i > 0 {
				sb.WriteString(" ")
			}
			fmt.Fprintf(sb, "(%s %s ", b.Name, b.Type)
			renderNode(sb, ra, el, m, b.Expr)
			sb.WriteString(")")
		}
		sb.WriteString(") ")
		renderNode(sb, ra, el, m, n.Body)
		sb.WriteString(")")
	case isle.NApply:
		sb.WriteString("(")
		sb.WriteString(n.Name)
		for _, a := range n.Args {
			sb.WriteString(" ")
			renderNode(sb, ra, el, m, a)
		}
		sb.WriteString(")")
	}
}

// SortedRuleNames returns the program's rule names in sorted order
// (convenience for stable reporting).
func (v *Verifier) SortedRuleNames() []string {
	names := make([]string, 0, len(v.Prog.Rules))
	for _, r := range v.Prog.Rules {
		names = append(names, r.Name)
	}
	sort.Strings(names)
	return names
}
