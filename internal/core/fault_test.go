package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"crocus/internal/smt"
)

// faultRules is a small mixed corpus: a verifying rule, a failing rule
// (§2.3's broken rotr), and a second verifying rule.
const faultRules = `
	(rule iadd_base
		(lower (has_type ty (iadd x y)))
		(a64_add ty x y))
	(rule rotr_broken
		(lower (rotr x y))
		(a64_rotr_64 x y))
	(rule iadd_again
		(lower (has_type (fits_in_16 ty) (iadd x y)))
		(a64_add ty x y))`

// panicVC returns a custom verification condition whose Condition panics
// on every call after the first skip invocations. The counter is atomic:
// on a pool of several workers the rule's units call it concurrently.
func panicVC(skip int64) *CustomVC {
	var calls atomic.Int64
	return &CustomVC{
		Condition: func(ctx *VCContext) (smt.TermID, error) {
			if calls.Add(1) > skip {
				panic("injected fault")
			}
			return ctx.B.Eq(ctx.LHSResult, ctx.RHSResult), nil
		},
	}
}

// TestPanicContainedAsError: a rule whose pipeline panics under both the
// first attempt and the retry is reported as one OutcomeError per
// instantiation, each carrying a *PanicError for that unit — not a
// crash, not an error return.
func TestPanicContainedAsError(t *testing.T) {
	v := buildVerifier(t, faultRules, Options{
		Custom: map[string]*CustomVC{"iadd_base": panicVC(0)},
	})
	rr := verifyOnly(t, v, "iadd_base")
	if rr.Outcome() != OutcomeError {
		t.Fatalf("outcome = %v, want error", rr.Outcome())
	}
	sigs := v.Sigs(rr.Rule)
	if len(rr.Insts) != len(sigs) {
		t.Fatalf("%d outcomes for %d instantiations: %+v", len(rr.Insts), len(sigs), rr.Insts)
	}
	for i, io := range rr.Insts {
		if io.Outcome != OutcomeError {
			t.Errorf("inst %d: outcome = %v, want error", i, io.Outcome)
		}
		var pe *PanicError
		if !errors.As(io.Err, &pe) {
			t.Fatalf("inst %d: Err = %v, want *PanicError", i, io.Err)
		}
		if pe.Rule != "iadd_base" || pe.Sig != sigs[i].String() || pe.Stack == "" {
			t.Errorf("inst %d: diagnostics bundle incomplete: rule=%q sig=%q (want %q) stack len=%d",
				i, pe.Rule, pe.Sig, sigs[i], len(pe.Stack))
		}
		if !strings.Contains(pe.Error(), "injected fault") {
			t.Errorf("inst %d: Error() = %q, want the panic value", i, pe.Error())
		}
	}
	if rr.AllSuccess() {
		t.Error("AllSuccess must be false for an errored rule")
	}
}

// TestPanicRetriedFresh: a fault that only strikes the first attempt is
// healed by the retry on new sessions, and the result says so.
func TestPanicRetriedFresh(t *testing.T) {
	// Four instantiations x one assignment each: the first Condition call
	// (first attempt, first instantiation) panics; every later call (the
	// retry) succeeds.
	vc := &CustomVC{}
	calls := 0
	vc.Condition = func(ctx *VCContext) (smt.TermID, error) {
		calls++
		if calls == 1 {
			panic("transient fault")
		}
		return ctx.B.Eq(ctx.LHSResult, ctx.RHSResult), nil
	}
	v := buildVerifier(t, faultRules, Options{
		Custom: map[string]*CustomVC{"iadd_base": vc},
	})
	rr := verifyOnly(t, v, "iadd_base")
	if !rr.RetriedFresh {
		t.Fatal("RetriedFresh not set")
	}
	if rr.Outcome() != OutcomeSuccess {
		t.Fatalf("outcome = %v, want success from the retry", rr.Outcome())
	}
}

// TestSweepFaultIsolationDifferential: injecting a panic into one rule
// must leave every other rule's verdict byte-identical to a clean sweep,
// and the sweep itself must complete (the acceptance differential). One
// worker and three run the same unit path, so their faulted sweeps match
// unit for unit: outcome, sig and fault text.
func TestSweepFaultIsolationDifferential(t *testing.T) {
	faultedUnits := map[int][]string{}
	for _, par := range []int{1, 3} {
		clean := buildVerifier(t, faultRules, Options{Parallelism: par})
		cleanRes, err := clean.VerifyAll()
		if err != nil {
			t.Fatal(err)
		}
		faulted := buildVerifier(t, faultRules, Options{
			Parallelism: par,
			Custom:      map[string]*CustomVC{"iadd_base": panicVC(0)},
		})
		faultRes, err := faulted.VerifyAllContext(context.Background())
		if err != nil {
			t.Fatalf("parallelism %d: faulted sweep must not error: %v", par, err)
		}
		if len(faultRes) != len(cleanRes) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(faultRes), len(cleanRes))
		}
		for i, rr := range faultRes {
			for _, io := range rr.Insts {
				u := fmt.Sprintf("%s %v %s", rr.Rule.Name, io.Sig, io.Outcome)
				if io.Err != nil {
					u += ": " + io.Err.Error()
				}
				faultedUnits[par] = append(faultedUnits[par], u)
			}
			if rr.Rule.Name == "iadd_base" {
				if rr.Outcome() != OutcomeError {
					t.Errorf("parallelism %d: injected rule outcome = %v, want error", par, rr.Outcome())
				}
				continue
			}
			if !reflect.DeepEqual(outcomes(rr), outcomes(cleanRes[i])) {
				t.Errorf("parallelism %d: %s verdicts diverged: %v vs clean %v",
					par, rr.Rule.Name, outcomes(rr), outcomes(cleanRes[i]))
			}
		}
	}
	if !reflect.DeepEqual(faultedUnits[1], faultedUnits[3]) {
		t.Errorf("faulted sweeps differ by parallelism:\np1: %q\np3: %q", faultedUnits[1], faultedUnits[3])
	}
}

// TestCancelMidSweep: a context canceled partway through the sweep
// returns the completed prefix in source order together with ctx.Err().
func TestCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// rotr_broken's custom VC pulls the plug: the first rule completes,
	// the canceling rule and everything after it do not.
	vc := &CustomVC{
		Condition: func(c *VCContext) (smt.TermID, error) {
			cancel()
			return c.B.Eq(c.LHSResult, c.RHSResult), nil
		},
	}
	v := buildVerifier(t, faultRules, Options{
		Custom: map[string]*CustomVC{"rotr_broken": vc},
	})
	out, err := v.VerifyAllContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 1 || out[0].Rule.Name != "iadd_base" {
		names := make([]string, len(out))
		for i, rr := range out {
			names[i] = rr.Rule.Name
		}
		t.Fatalf("partial results = %v, want exactly the completed prefix [iadd_base]", names)
	}
	if out[0].Outcome() != OutcomeSuccess {
		t.Errorf("completed rule outcome = %v, want success", out[0].Outcome())
	}
}

// TestCancelBeforeSweep: an already-canceled context yields no results
// and no work, sequentially and in parallel.
func TestCancelBeforeSweep(t *testing.T) {
	for _, par := range []int{1, 3} {
		v := buildVerifier(t, faultRules, Options{Parallelism: par})
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		out, err := v.VerifyAllContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: err = %v, want context.Canceled", par, err)
		}
		if len(out) != 0 {
			t.Fatalf("parallelism %d: got %d results on a dead context", par, len(out))
		}
	}
}

// TestEscalationLadder: a unit that times out at a starvation budget
// flips to success when the ladder grants an unlimited rung, and the
// retry count is recorded.
func TestEscalationLadder(t *testing.T) {
	base := buildVerifier(t, faultRules, Options{PropagationBudget: 1})
	rr := verifyOnly(t, base, "iadd_base")
	if rr.Outcome() != OutcomeTimeout {
		t.Skipf("base budget did not starve the unit (outcome %v); ladder test needs a timeout", rr.Outcome())
	}

	laddered := buildVerifier(t, faultRules, Options{
		PropagationBudget: 1,
		RetryBudgets:      []int64{0},
	})
	rr2 := verifyOnly(t, laddered, "iadd_base")
	if rr2.Outcome() != OutcomeSuccess {
		t.Fatalf("laddered outcome = %v, want success", rr2.Outcome())
	}
	esc := 0
	for _, io := range rr2.Insts {
		esc += io.Escalations
	}
	if esc == 0 {
		t.Error("no escalations recorded despite the ladder deciding the unit")
	}
}

// TestEscalationSkipsStingierRungs: rungs not more generous than the
// previous attempt are skipped, so a descending ladder degenerates to
// the base attempt.
func TestEscalationSkipsStingierRungs(t *testing.T) {
	v := buildVerifier(t, faultRules, Options{
		PropagationBudget: 1000,
		RetryBudgets:      []int64{500, 1000}, // neither exceeds the base
	})
	rr := verifyOnly(t, v, "iadd_base")
	for _, io := range rr.Insts {
		if io.Escalations != 0 {
			t.Fatalf("escalations = %d on a ladder with no generous rung", io.Escalations)
		}
	}
}

// TestLadderIgnoredWithoutBaseBudget: with an unlimited base budget the
// ladder must never engage (there is nothing to escalate from).
func TestLadderIgnoredWithoutBaseBudget(t *testing.T) {
	v := buildVerifier(t, faultRules, Options{RetryBudgets: []int64{5, 10}})
	rr := verifyOnly(t, v, "iadd_base")
	if rr.Outcome() != OutcomeSuccess {
		t.Fatalf("outcome = %v", rr.Outcome())
	}
	for _, io := range rr.Insts {
		if io.Escalations != 0 {
			t.Fatalf("escalations = %d without a finite base budget", io.Escalations)
		}
	}
}

// TestLadderMaxBudget pins the staleness bound the cache probe uses.
func TestLadderMaxBudget(t *testing.T) {
	cases := []struct {
		base  int64
		rungs []int64
		want  int64
	}{
		{0, nil, 0},
		{0, []int64{50}, 0}, // no base budget: unlimited already
		{100, nil, 100},
		{100, []int64{50}, 100}, // stingier rung does not lower the max
		{100, []int64{500, 900}, 900},
		{100, []int64{500, 0}, 0}, // unlimited final rung
	}
	for _, c := range cases {
		v := &Verifier{Opts: Options{PropagationBudget: c.base, RetryBudgets: c.rungs}}
		if got := v.ladderMaxBudget(); got != c.want {
			t.Errorf("ladderMaxBudget(base=%d, rungs=%v) = %d, want %d", c.base, c.rungs, got, c.want)
		}
	}
}
