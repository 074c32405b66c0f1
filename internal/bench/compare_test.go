package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func basePhase() Phase {
	return Phase{
		WallNS: 2_000_000_000, WallSeconds: 2.0,
		Rules: 96, Insts: 381,
		Outcomes: map[string]int{"success": 252, "inapplicable": 108, "failure": 4, "timeout": 17},
	}
}

func baseReport() *Report {
	r := &Report{
		Corpus:          "aarch64",
		TimeoutNS:       1_000_000_000,
		Budget:          200_000,
		IncrementalCold: basePhase(),
		IncrementalWarm: basePhase(),
		VerdictsMatch:   true,
	}
	return r
}

func TestCompareIdenticalPasses(t *testing.T) {
	if regs := Compare(baseReport(), baseReport(), DefaultTolerances()); len(regs) != 0 {
		t.Fatalf("identical reports should pass, got %v", regs)
	}
}

func TestCompareWithinToleranceHasNoRegressions(t *testing.T) {
	cur := baseReport()
	// 1.9x wall (under 2x), one extra timeout traded against success
	// (under the delta of 2): all within tolerance.
	cur.IncrementalCold.WallNS = 3_800_000_000
	cur.IncrementalCold.WallSeconds = 3.8
	cur.IncrementalCold.Outcomes["timeout"] = 18
	cur.IncrementalCold.Outcomes["success"] = 251
	if regs := Compare(baseReport(), cur, DefaultTolerances()); len(regs) != 0 {
		t.Fatalf("in-tolerance drift should pass, got %v", regs)
	}
	// Fewer timeouts than baseline is an improvement, never a regression.
	cur = baseReport()
	cur.IncrementalCold.Outcomes["timeout"] = 0
	cur.IncrementalCold.Outcomes["success"] = 269
	if regs := Compare(baseReport(), cur, DefaultTolerances()); len(regs) != 0 {
		t.Fatalf("fewer timeouts should pass, got %v", regs)
	}
}

func TestCompareFlagsWallRegression(t *testing.T) {
	cur := baseReport()
	cur.IncrementalCold.WallNS = 5_000_000_000 // 2.5x
	cur.IncrementalCold.WallSeconds = 5.0
	regs := Compare(baseReport(), cur, DefaultTolerances())
	if len(regs) != 1 || regs[0].Phase != "incremental_cold" || regs[0].Metric != "wall_ns" {
		t.Fatalf("want one incremental_cold/wall_ns regression, got %v", regs)
	}
	// Disabling the wall check tolerates it.
	tol := DefaultTolerances()
	tol.MaxWallRatio = 0
	if regs := Compare(baseReport(), cur, tol); len(regs) != 0 {
		t.Fatalf("MaxWallRatio 0 should disable wall checks, got %v", regs)
	}
}

func TestCompareFlagsTimeoutRegression(t *testing.T) {
	cur := baseReport()
	cur.IncrementalCold.Outcomes["timeout"] = 25 // +8 > delta 2
	cur.IncrementalCold.Outcomes["success"] = 244
	regs := Compare(baseReport(), cur, DefaultTolerances())
	if len(regs) != 1 || regs[0].Metric != "outcomes.timeout" {
		t.Fatalf("want outcomes.timeout regression, got %v", regs)
	}
}

func TestCompareFlagsVerdictDrift(t *testing.T) {
	// A failure count change is a correctness event, not noise: zero
	// tolerance.
	cur := baseReport()
	cur.IncrementalCold.Outcomes["failure"] = 5
	cur.IncrementalCold.Outcomes["success"] = 251
	regs := Compare(baseReport(), cur, DefaultTolerances())
	found := false
	for _, r := range regs {
		if r.Metric == "outcomes.failure" {
			found = true
		}
	}
	if !found {
		t.Fatalf("failure drift not flagged: %v", regs)
	}

	// Lost instantiations are flagged even with all tolerances disabled.
	cur = baseReport()
	cur.IncrementalWarm.Insts = 380
	cur.IncrementalWarm.Outcomes["success"] = 251
	tol := Tolerances{MaxWallRatio: 0, MaxTimeoutDelta: -1}
	regs = Compare(baseReport(), cur, tol)
	if len(regs) == 0 {
		t.Fatal("lost instantiation not flagged")
	}

	// success+timeout shrinking together (verdicts leaking into
	// inapplicable/error would be caught by those exact checks; this
	// guards the aggregate).
	cur = baseReport()
	cur.IncrementalWarm.Outcomes["success"] = 250
	regs = Compare(baseReport(), cur, DefaultTolerances())
	if len(regs) != 1 || regs[0].Metric != "outcomes.success" {
		t.Fatalf("want outcomes.success regression, got %v", regs)
	}
}

func TestCompareFlagsExperimentMismatch(t *testing.T) {
	cur := baseReport()
	cur.Budget = 20_000
	regs := Compare(baseReport(), cur, DefaultTolerances())
	if len(regs) == 0 || regs[0].Metric != "propagation_budget" {
		t.Fatalf("budget mismatch not flagged: %v", regs)
	}
	cur = baseReport()
	cur.VerdictsMatch = false
	regs = Compare(baseReport(), cur, DefaultTolerances())
	if len(regs) != 1 || regs[0].Metric != "verdicts_match" {
		t.Fatalf("verdict mismatch not flagged: %v", regs)
	}
}

func TestReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	r := baseReport()
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Corpus != r.Corpus || got.Budget != r.Budget || got.IncrementalCold.Insts != r.IncrementalCold.Insts {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if regs := Compare(r, got, DefaultTolerances()); len(regs) != 0 {
		t.Fatalf("round-tripped report should compare clean: %v", regs)
	}
}

func TestRenderRegressions(t *testing.T) {
	regs := []Regression{
		{Phase: "incremental_warm_cache", Metric: "wall_ns", Detail: "too slow"},
		{Phase: "incremental_cold", Metric: "outcomes.timeout", Detail: "too many"},
	}
	out := RenderRegressions(regs)
	if !strings.Contains(out, "REGRESSION incremental_warm_cache/wall_ns") ||
		!strings.Contains(out, "REGRESSION incremental_cold/outcomes.timeout") {
		t.Fatalf("render = %q", out)
	}
}

func TestCompatibleVerdicts(t *testing.T) {
	if !CompatibleVerdicts([]string{"success", "timeout"}, []string{"timeout", "success"}) {
		t.Fatal("timeout flips should be compatible")
	}
	if CompatibleVerdicts([]string{"success"}, []string{"failure"}) {
		t.Fatal("success vs failure must be incompatible")
	}
	if CompatibleVerdicts([]string{"success"}, []string{"success", "success"}) {
		t.Fatal("length mismatch must be incompatible")
	}
}
