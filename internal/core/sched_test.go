package core

// Tests for the unit-scheduled sweep path: per-unit fault containment
// when a panic strikes on whichever worker (owner or thief) executes the
// unit, cancellation mid-sweep, an injected shared scheduler (the daemon
// configuration), and the sharded multi-process workflow
// (shard -> merge -> replay) proven equivalent to a single-process run.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"crocus/internal/sched"
	"crocus/internal/smt"
	"crocus/internal/vcache"
)

// atomicPanicVC returns a custom VC whose Condition always panics. The
// call counter is atomic because under unit scheduling the Condition runs
// concurrently on several workers (unlike fault_test.go's serial panicVC).
func atomicPanicVC() (*CustomVC, *atomic.Int64) {
	var calls atomic.Int64
	return &CustomVC{
		Condition: func(ctx *VCContext) (smt.TermID, error) {
			calls.Add(1)
			panic("injected unit fault")
		},
	}, &calls
}

// totalUnits counts the verification units a sweep over v's program
// expands to.
func totalUnits(v *Verifier) int {
	n := 0
	for _, r := range v.Prog.Rules {
		n += len(v.Sigs(r))
	}
	return n
}

// TestScheduledPanicContainedPerUnit is the mid-steal containment
// differential (race-gated by running under -race in CI): a rule whose
// every unit panics — on whichever worker the steal landed it — must
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
		t.Fatalf("iadd_base expands to %d units; the mid-steal test needs several", units)
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
			// so the rule carries one errored instantiation per unit —
			// not the serial path's single rule-level error.
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

// TestScheduledCancelMidSweep: canceling a unit-scheduled sweep returns
// only completed rules, in source order, with ctx.Err(). Unlike the
// rule-parallel serial contract there is no guaranteed prefix — units
// complete out of order — but no partial rule may ever appear.
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

// TestShardMergeReplayEquivalence runs the documented two-process
// workflow in-process: shard 0/2 and 1/2 with separate cache stores,
// vcache.Merge the stores, then replay the full corpus against the
// merged cache — verdicts must be byte-identical (including rendered
// counterexamples: each unit solves on its own session, so its model is
// a function of the unit alone) to a plain single-process sweep.
func TestShardMergeReplayEquivalence(t *testing.T) {
	base := Options{Parallelism: 2}

	single := buildVerifier(t, faultRules, base)
	want, err := single.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	wantUnits := totalUnits(single)

	dir := t.TempDir()
	shardDirs := []string{filepath.Join(dir, "c0"), filepath.Join(dir, "c1")}
	owned := 0
	for i, cdir := range shardDirs {
		opts := base
		opts.CacheDir = cdir
		opts.ShardIndex = i
		opts.ShardCount = 2
		v := buildVerifier(t, faultRules, opts)
		rs, err := v.VerifyAll()
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		for _, rr := range rs {
			owned += len(rr.Insts)
		}
		if err := v.CloseCache(); err != nil {
			t.Fatalf("shard %d cache close: %v", i, err)
		}
	}
	// The shards partition the units: each is owned (and solved) exactly
	// once across the two processes.
	if owned != wantUnits {
		t.Fatalf("shards solved %d units between them, want the full corpus (%d)", owned, wantUnits)
	}

	merged := filepath.Join(dir, "merged")
	stats, err := vcache.Merge(merged, shardDirs...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if len(stats.Conflicts) != 0 {
		t.Fatalf("merge found %d conflicts between disjoint shards", len(stats.Conflicts))
	}
	// The union must cover every distinct fingerprint. (Distinct, not
	// total: units of different rules that monomorphize to the same VC —
	// iadd_base and iadd_again at overlapping widths — share a content
	// address and therefore one cache entry.)
	keys := map[string]bool{}
	for _, r := range single.Prog.Rules {
		for _, sig := range single.Sigs(r) {
			if key, ok, err := single.FingerprintInstantiation(r, sig); err != nil {
				t.Fatal(err)
			} else if ok {
				keys[key] = true
			}
		}
	}
	if stats.Added != len(keys) {
		t.Fatalf("merge added %d entries, want one per distinct fingerprint (%d)", stats.Added, len(keys))
	}

	opts := base
	opts.CacheDir = merged
	replay := buildVerifier(t, faultRules, opts)
	got, err := replay.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if st := replay.CacheStats(); st.Misses != 0 {
		t.Errorf("replay missed the merged cache %d times; the union is incomplete", st.Misses)
	}
	if len(got) != len(want) {
		t.Fatalf("replay returned %d rules, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Rule.Name != w.Rule.Name || len(g.Insts) != len(w.Insts) {
			t.Fatalf("replay rule %d = %s (%d insts), want %s (%d insts)",
				i, g.Rule.Name, len(g.Insts), w.Rule.Name, len(w.Insts))
		}
		for j := range g.Insts {
			gi, wi := g.Insts[j], w.Insts[j]
			if gi.Outcome != wi.Outcome || gi.Sig.String() != wi.Sig.String() {
				t.Errorf("%s unit %d: replay %v @ %s, single-process %v @ %s",
					g.Rule.Name, j, gi.Outcome, gi.Sig, wi.Outcome, wi.Sig)
			}
			gc, wc := gi.Counterexample, wi.Counterexample
			if (gc == nil) != (wc == nil) {
				t.Errorf("%s unit %d: counterexample presence differs", g.Rule.Name, j)
			} else if gc != nil && gc.Rendered != wc.Rendered {
				t.Errorf("%s unit %d: rendered counterexample differs:\n%s\nvs single-process:\n%s",
					g.Rule.Name, j, gc.Rendered, wc.Rendered)
			}
			if !reflect.DeepEqual(gi.DistinctInputs, wi.DistinctInputs) {
				t.Errorf("%s unit %d: distinct verdict differs", g.Rule.Name, j)
			}
		}
	}
}

// TestShardPartitionIsTotal: every unit's shard assignment is a valid
// index, so no unit can be orphaned by the partition.
func TestShardPartitionIsTotal(t *testing.T) {
	v := buildVerifier(t, faultRules, Options{})
	for _, r := range v.Prog.Rules {
		for _, sig := range v.Sigs(r) {
			key, ok, err := v.FingerprintInstantiation(r, sig)
			if err != nil {
				t.Fatalf("%s @ %s: %v", r.Name, sig, err)
			}
			if !ok {
				continue
			}
			for n := 2; n <= 5; n++ {
				if s := vcache.Shard(key, n); s < 0 || s >= n {
					t.Fatalf("Shard(%q, %d) = %d out of range", key, n, s)
				}
			}
		}
	}
}
