package core

// Tests for the unit-scheduled sweep path: per-unit fault containment
// when a panic strikes on whichever worker executes the unit,
// cancellation mid-sweep, and an injected shared scheduler (the daemon
// configuration).

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"crocus/internal/sched"
	"crocus/internal/smt"
)

// atomicPanicVC returns a custom VC whose Condition always panics, and
// its call counter (atomic: on several workers the Condition runs
// concurrently).
func atomicPanicVC() (*CustomVC, *atomic.Int64) {
	var calls atomic.Int64
	return &CustomVC{
		Condition: func(ctx *VCContext) (smt.TermID, error) {
			calls.Add(1)
			panic("injected unit fault")
		},
	}, &calls
}

// TestScheduledPanicContainedPerUnit is the multi-worker containment
// differential (race-gated by running under -race in CI): a rule whose
// every unit panics — on whichever worker took it from the queue — must
// degrade to OutcomeError per unit, while every other rule's verdicts
// stay byte-identical to a serial clean sweep.
func TestScheduledPanicContainedPerUnit(t *testing.T) {
	clean := buildVerifier(t, faultRules, Options{})
	cleanRes, err := clean.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}

	vc, calls := atomicPanicVC()
	faulted := buildVerifier(t, faultRules, Options{
		Parallelism: 3,
		Custom:      map[string]*CustomVC{"iadd_base": vc},
	})
	units := len(faulted.Sigs(faulted.Prog.Rules[0]))
	if units < 2 {
		t.Fatalf("iadd_base expands to %d units; the multi-worker test needs several", units)
	}
	faultRes, err := faulted.VerifyAllContext(context.Background())
	if err != nil {
		t.Fatalf("faulted scheduled sweep must not error: %v", err)
	}
	if calls.Load() == 0 {
		t.Fatal("injected VC never ran")
	}
	if len(faultRes) != len(cleanRes) {
		t.Fatalf("%d results, want %d", len(faultRes), len(cleanRes))
	}
	for i, rr := range faultRes {
		if rr.Rule.Name == "iadd_base" {
			// Unit-level containment: every unit degrades independently,
			// so the rule carries one errored instantiation per unit.
			if rr.Outcome() != OutcomeError {
				t.Errorf("injected rule outcome = %v, want error", rr.Outcome())
			}
			if len(rr.Insts) != units {
				t.Errorf("injected rule has %d insts, want one per unit (%d)", len(rr.Insts), units)
			}
			for _, io := range rr.Insts {
				var pe *PanicError
				if io.Err == nil || !errors.As(io.Err, &pe) {
					t.Errorf("unit error = %v, want *PanicError", io.Err)
				}
			}
			continue
		}
		if !reflect.DeepEqual(outcomes(rr), outcomes(cleanRes[i])) {
			t.Errorf("%s verdicts diverged under injected fault: %v vs clean %v",
				rr.Rule.Name, outcomes(rr), outcomes(cleanRes[i]))
		}
	}
}

// TestScheduledCancelMidSweep: canceling a sweep on several workers
// returns only completed rules, in source order, with ctx.Err(). Unlike
// one worker there is no guaranteed prefix — units complete out of
// order — but no partial rule may ever appear.
func TestScheduledCancelMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool
	vc := &CustomVC{
		Condition: func(c *VCContext) (smt.TermID, error) {
			fired.Store(true)
			cancel()
			return c.B.Eq(c.LHSResult, c.RHSResult), nil
		},
	}
	v := buildVerifier(t, faultRules, Options{
		Parallelism: 4,
		Custom:      map[string]*CustomVC{"rotr_broken": vc},
	})
	out, err := v.VerifyAllContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !fired.Load() {
		t.Fatal("canceling VC never ran")
	}
	// Source order and completeness: every returned rule appears in
	// program order and carries a verdict for each of its units.
	last := -1
	idx := map[string]int{}
	for i, r := range v.Prog.Rules {
		idx[r.Name] = i
	}
	for _, rr := range out {
		i := idx[rr.Rule.Name]
		if i <= last {
			t.Errorf("results out of source order at %s", rr.Rule.Name)
		}
		last = i
		if rr.Rule.Name == "rotr_broken" {
			continue // the canceling rule may complete or not; either is fine
		}
		if want := len(v.Sigs(rr.Rule)); len(rr.Insts) != want {
			t.Errorf("%s returned partial: %d insts, want %d", rr.Rule.Name, len(rr.Insts), want)
		}
	}
}

// TestScheduledCancelBeforeSweep: a dead context yields no results from
// the scheduled path and the pool-submitted tasks fast-skip.
func TestScheduledCancelBeforeSweep(t *testing.T) {
	pool := sched.NewPool(2, nil)
	defer pool.Close()
	v := buildVerifier(t, faultRules, Options{Scheduler: pool})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := v.VerifyAllContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != 0 {
		t.Fatalf("got %d results on a dead context", len(out))
	}
}

// TestInjectedSchedulerSharedAcrossSweeps is the daemon configuration:
// one long-lived pool, several verifiers scheduling onto it — including
// the single-rule VerifyRuleContext path — all matching serial verdicts.
func TestInjectedSchedulerSharedAcrossSweeps(t *testing.T) {
	serial := buildVerifier(t, faultRules, Options{})
	want, err := serial.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(3, nil)
	defer pool.Close()
	for round := 0; round < 2; round++ {
		v := buildVerifier(t, faultRules, Options{Scheduler: pool})
		got, err := v.VerifyAll()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: %d results, want %d", round, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(outcomes(got[i]), outcomes(want[i])) {
				t.Errorf("round %d: %s verdicts diverged: %v vs serial %v",
					round, got[i].Rule.Name, outcomes(got[i]), outcomes(want[i]))
			}
		}
	}

	// Single-rule request path (what crocus-serve issues per request).
	v := buildVerifier(t, faultRules, Options{Scheduler: pool})
	rr := verifyOnly(t, v, "iadd_base")
	if !reflect.DeepEqual(outcomes(rr), outcomes(want[0])) {
		t.Errorf("VerifyRule on shared pool diverged: %v vs serial %v", outcomes(rr), outcomes(want[0]))
	}
}
