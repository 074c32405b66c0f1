package core

// Unit-level scheduling: VerifyAllContext and (with an injected
// scheduler) VerifyRuleContext decompose work into verification units —
// one (rule, type instantiation) solve — and run them on a
// work-stealing pool (internal/sched). Every unit owns its builder and
// solver session (see verifyInstantiation), so which worker runs a unit
// never changes its verdict. This file holds the pieces that keep the
// rule-level contracts intact at unit granularity:
//
//   - verifyUnitContained: PR 4's containment ladder per unit — panic
//     recovered, one retry on a new session, persisting faults degrade
//     to OutcomeError for that unit only.
//   - assembly: results are assembled in source order from per-slot
//     writes, so scheduling and stealing order never leak into output.

import (
	"context"
	"fmt"

	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/sched"
)

// unitSlot is one unit's result cell: written by exactly one task,
// read after the batch completes. A nil io means the unit never ran
// (cancellation).
type unitSlot struct {
	io           *InstOutcome
	retriedFresh bool
}

// verifyUnitAttempt runs one unit attempt, converting any panic in the
// monomorphize/elaborate/blast/solve stack into a *PanicError (the
// per-unit analogue of verifyRuleAttempt).
func (v *Verifier) verifyUnitAttempt(ctx context.Context, rule *isle.Rule, sig *isle.Sig) (io *InstOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			io, err = nil, newPanicError(rule, sig, r)
		}
	}()
	io, err = v.verifyInstantiation(ctx, rule, sig)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", rule, err)
	}
	return io, nil
}

// verifyUnitContained verifies one unit with sweep-grade fault
// isolation, mirroring VerifyRuleContext's ladder at unit granularity:
// a faulting attempt is retried once (on a new session, like every
// attempt); a persisting fault degrades to an OutcomeError outcome for
// this unit only. Returns a nil slot.io only when the context was
// canceled before the unit completed.
func (v *Verifier) verifyUnitContained(ctx context.Context, rule *isle.Rule, sig *isle.Sig) unitSlot {
	io, err := v.verifyUnitAttempt(ctx, rule, sig)
	if err == nil {
		return unitSlot{io: io}
	}
	if ctx.Err() != nil {
		return unitSlot{}
	}
	io2, err2 := v.verifyUnitAttempt(ctx, rule, sig)
	if err2 == nil {
		return unitSlot{io: io2, retriedFresh: true}
	}
	if ctx.Err() != nil {
		return unitSlot{}
	}
	fault := err
	if !isPanicErr(fault) && isPanicErr(err2) {
		fault = err2
	}
	return unitSlot{io: &InstOutcome{Sig: sig, Outcome: OutcomeError, Err: fault}}
}

// workerName labels a pool worker's trace lane. Stable names plus
// obs.WithNamedThread give every worker one lane for the whole run;
// a stolen unit's spans land on the lane of the worker that executed
// it.
func workerName(w int) string { return fmt.Sprintf("worker-%d", w) }

// unitTask builds the closure that verifies one unit and writes its
// slot. ctx is the sweep context; the task re-homes tracing onto the
// executing worker's lane at run time.
func (v *Verifier) unitTask(ctx context.Context, rule *isle.Rule, sig *isle.Sig, slot *unitSlot) sched.Task {
	return func(w int) {
		if ctx.Err() != nil {
			return // canceled before start: leave the slot empty
		}
		wctx := obs.WithNamedThread(ctx, workerName(w))
		wctx = obs.WithScope(wctx, rule.Name)
		sp := obs.Start(wctx, obs.PhaseUnit)
		*slot = v.verifyUnitContained(wctx, rule, sig)
		if slot.io != nil {
			sp.SetAttr(obs.Str("outcome", slot.io.Outcome.String()))
		}
		sp.End()
	}
}

// assembleRule builds one rule's result from its unit slots, in sig
// order (sigs[j] is slot j's instantiation). ok is false when the rule
// is incomplete (a unit never ran because the sweep was canceled) — the
// rule is then omitted from results, matching the serial path's
// "completed rules only" contract. An empty slot without cancellation
// (the unit's task died before it could write — e.g. an injected
// sched.run panic unwound past the containment ladder) degrades to a
// contained error carrying the unit's sig, rather than a silent gap.
func (v *Verifier) assembleRule(ctx context.Context, rule *isle.Rule, sigs []*isle.Sig, slots []unitSlot) (rr *RuleResult, ok bool) {
	rr = &RuleResult{Rule: rule}
	for j, s := range slots {
		if s.io == nil {
			if ctx.Err() != nil {
				return nil, false
			}
			rr.Insts = append(rr.Insts, InstOutcome{
				Sig:     sigs[j],
				Outcome: OutcomeError,
				Err:     fmt.Errorf("%s: verification unit produced no result", rule),
			})
			continue
		}
		if s.retriedFresh {
			rr.RetriedFresh = true
		}
		if s.io.Skipped {
			continue
		}
		rr.Insts = append(rr.Insts, *s.io)
	}
	return rr, true
}

// verifyAllScheduled is the unit-scheduled sweep behind
// VerifyAllContext: expand every rule into units in source order,
// run them on the pool, and assemble results back in source order.
func (v *Verifier) verifyAllScheduled(ctx context.Context, rules []*isle.Rule, pool *sched.Pool) ([]*RuleResult, error) {
	sigs := make([][]*isle.Sig, len(rules))
	slots := make([][]unitSlot, len(rules))
	total := 0
	for i, r := range rules {
		sigs[i] = v.Sigs(r)
		slots[i] = make([]unitSlot, len(sigs[i]))
		total += len(sigs[i])
	}
	tasks := make([]sched.Task, 0, total)
	for i, r := range rules {
		for j, sig := range sigs[i] {
			tasks = append(tasks, v.unitTask(ctx, r, sig, &slots[i][j]))
		}
	}
	pool.RunBatch(tasks)

	results := make([]*RuleResult, 0, len(rules))
	for i, r := range rules {
		rr, ok := v.assembleRule(ctx, r, sigs[i], slots[i])
		if !ok {
			continue
		}
		results = append(results, v.dropIfForeign(rr)...)
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, nil
}

// verifyRuleScheduled runs one rule's units on the injected pool (the
// daemon's request path), with per-unit containment. Returns nil only
// when the context was canceled before the rule completed.
func (v *Verifier) verifyRuleScheduled(ctx context.Context, pool *sched.Pool, rule *isle.Rule) *RuleResult {
	sigs := v.Sigs(rule)
	slots := make([]unitSlot, len(sigs))
	tasks := make([]sched.Task, len(sigs))
	for j, sig := range sigs {
		tasks[j] = v.unitTask(ctx, rule, sig, &slots[j])
	}
	pool.RunBatch(tasks)
	rr, ok := v.assembleRule(ctx, rule, sigs, slots)
	if !ok {
		return nil
	}
	return rr
}
