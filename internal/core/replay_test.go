package core_test

import (
	"context"
	"reflect"
	"testing"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
	"crocus/internal/vcache"
)

// diffReplay sweeps prog twice over one cache, the second time all
// hits, and requires ReplayRule, given the keys the first sweep
// recorded, to return for every rule exactly what the all-hit sweep
// returned, durations aside: sigs, outcomes, assignments, stats, cached
// markers, keys, distinct-models verdicts and counterexamples.
func diffReplay(t *testing.T, prog *isle.Program, opts core.Options) {
	t.Helper()
	opts.Cache = vcache.NewMemory()
	v := core.New(prog, opts)
	cold, err := v.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := v.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range cold {
		keys := make([]string, len(rr.Insts))
		for j, io := range rr.Insts {
			keys[j] = io.Key
		}
		got := v.ReplayRule(context.Background(), rr.Rule, keys)
		if got == nil {
			t.Errorf("%s: no replay on an all-hit cache", rr.Rule.Name)
			continue
		}
		want := *warm[i]
		want.Insts = append([]core.InstOutcome(nil), want.Insts...)
		for j := range want.Insts {
			want.Insts[j].Duration = 0
		}
		for j := range got.Insts {
			got.Insts[j].Duration = 0
		}
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%s: replay differs from the all-hit sweep:\n%+v\n%+v", rr.Rule.Name, got.Insts, want.Insts)
		}
	}
}

// TestReplayRuleMatchesAllHitSweep covers timeouts and zero-assignment
// units (x64 at budget 200k) and counterexamples and distinct-models
// verdicts (every reproduced defect, each under its own flag).
func TestReplayRuleMatchesAllHitSweep(t *testing.T) {
	prog, err := corpus.LoadX64()
	if err != nil {
		t.Fatal(err)
	}
	diffReplay(t, prog, core.Options{PropagationBudget: 200_000})
	if raceDetectorEnabled {
		return // the bug corpora's cold sweeps are too slow under -race
	}
	for _, b := range corpus.Bugs() {
		prog, err := corpus.LoadBug(b)
		if err != nil {
			t.Fatal(err)
		}
		diffReplay(t, prog, core.Options{PropagationBudget: schedBudget, DistinctModels: b.DistinctModels})
	}
}

// TestReplayRuleJudgesStalenessLikeTheProbe: ReplayRule looks each key
// up under its own verifier's ladder, so a timeout recorded at the base
// budget is no replay for a verifier whose ladder climbs higher, while
// a decided unit still is.
func TestReplayRuleJudgesStalenessLikeTheProbe(t *testing.T) {
	prog, err := corpus.LoadX64()
	if err != nil {
		t.Fatal(err)
	}
	cache := vcache.NewMemory()
	base := core.New(prog, core.Options{PropagationBudget: 200_000, Cache: cache})
	ladder := core.New(prog, core.Options{PropagationBudget: 200_000, RetryBudgets: []int64{5_000_000}, Cache: cache})
	for _, rule := range prog.Rules {
		name := rule.Name
		if name != "amode_add_reg" && name != "x64_iadd_base" {
			continue
		}
		rr, err := base.VerifyRule(rule)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(rr.Insts))
		for j, io := range rr.Insts {
			keys[j] = io.Key
		}
		timedOut := rr.Outcome() == core.OutcomeTimeout
		if timedOut != (name == "amode_add_reg") {
			t.Fatalf("%s at budget 200k: %v", name, rr.Outcome())
		}
		if got := base.ReplayRule(context.Background(), rule, keys); got == nil {
			t.Errorf("%s: no replay under the recording verifier's settings", name)
		}
		if got := ladder.ReplayRule(context.Background(), rule, keys); (got == nil) != timedOut {
			t.Errorf("%s: replay under a higher ladder = %v, want a replay only without a timeout", name, got != nil)
		}
	}
}
