package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"crocus/internal/obs"
	"crocus/internal/smt"
)

// obsTestRules mixes outcomes: a correct rule and the paper's broken
// 64-bit-only rotate (fails at narrow widths).
const obsTestRules = `
	(rule iadd_base
		(lower (has_type ty (iadd x y)))
		(a64_add ty x y))
	(rule broken_rotr
		(lower (has_type ty (rotr x y)))
		(a64_rotr_64 x y))`

// TestTracedVerdictsUnchanged is the observability safety contract: the
// same sweep run with and without a tracer must produce identical
// verdicts, and the traced run must cover the pipeline's span taxonomy.
// One worker and two run the same unit path, so they record the same
// set of span names.
func TestTracedVerdictsUnchanged(t *testing.T) {
	collect := func(ctx context.Context, par int) [][]Outcome {
		v := buildVerifier(t, obsTestRules, Options{Parallelism: par})
		rs, err := v.VerifyAllContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]Outcome, len(rs))
		for i, rr := range rs {
			out[i] = outcomes(rr)
		}
		return out
	}

	spanNames := map[int]map[string]int{}
	for _, par := range []int{1, 2} {
		plain := collect(context.Background(), par)
		tr := obs.New()
		traced := collect(obs.WithTracer(context.Background(), tr), par)

		if len(plain) != len(traced) {
			t.Fatalf("p%d: rule counts differ: %d vs %d", par, len(plain), len(traced))
		}
		for i := range plain {
			if len(plain[i]) != len(traced[i]) {
				t.Fatalf("p%d: rule %d: instantiation counts differ", par, i)
			}
			for j := range plain[i] {
				if plain[i][j] != traced[i][j] {
					t.Errorf("p%d: rule %d inst %d: verdict %v with tracer, %v without",
						par, i, j, traced[i][j], plain[i][j])
				}
			}
		}

		phases := map[string]int{}
		scopes := map[string]bool{}
		for _, ev := range tr.Events() {
			phases[ev.Name]++
			scopes[ev.Scope] = true
		}
		for _, want := range []string{
			obs.PhaseUnit, obs.PhaseMonomorphize, obs.PhaseElaborate,
			obs.PhaseAttempt, obs.PhaseQueryApp, obs.PhaseQueryEquiv,
			obs.PhaseSolveEqs, obs.PhaseSimplify, obs.PhaseUnits,
			obs.PhaseBlast, obs.PhaseSolve,
		} {
			if phases[want] == 0 {
				t.Errorf("p%d: no %s span recorded (phases: %v)", par, want, phases)
			}
		}
		// Spans must be scoped to the rules they verified.
		if !scopes["iadd_base"] || !scopes["broken_rotr"] {
			t.Errorf("p%d: rule scopes missing: %v", par, scopes)
		}
		spanNames[par] = phases
	}
	for name := range spanNames[1] {
		if spanNames[2][name] == 0 {
			t.Errorf("span %q recorded at p1 but not at p2", name)
		}
	}
	for name := range spanNames[2] {
		if spanNames[1][name] == 0 {
			t.Errorf("span %q recorded at p2 but not at p1", name)
		}
	}
}

// TestFlightAndProfilerVerdictsUnchanged extends the safety contract to
// the telemetry seams: the same sweep run through a ring-mode tracer
// with a flight collecting every span (the daemon's always-on
// configuration), then folded into a rule-hardness profile, must leave
// verdicts byte-identical to the plain run.
func TestFlightAndProfilerVerdictsUnchanged(t *testing.T) {
	collect := func(ctx context.Context) ([]*RuleResult, [][]Outcome) {
		v := buildVerifier(t, obsTestRules, Options{})
		rs, err := v.VerifyAllContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]Outcome, len(rs))
		for i, rr := range rs {
			out[i] = outcomes(rr)
		}
		return rs, out
	}

	_, plain := collect(context.Background())

	tr := obs.New()
	tr.SetRing(256)
	fr := obs.NewFlightRecorder(4, 0)
	fl := fr.StartFlight("sweep-1")
	ctx := obs.WithFlight(obs.WithTracer(context.Background(), tr), fl)
	rs, flighted := collect(ctx)

	if len(plain) != len(flighted) {
		t.Fatalf("rule counts differ: %d vs %d", len(plain), len(flighted))
	}
	for i := range plain {
		for j := range plain[i] {
			if plain[i][j] != flighted[i][j] {
				t.Errorf("rule %d inst %d: verdict %v with flight, %v without",
					i, j, flighted[i][j], plain[i][j])
			}
		}
	}

	// The flight must actually have collected the sweep's spans (this is
	// not a disabled-path run), and promoting + profiling must not touch
	// the results either.
	fl.Promote(obs.FlightTimeout)
	if !fr.Finish(fl, time.Millisecond, 200) {
		t.Fatal("explicitly promoted flight was not retained")
	}
	exs := fr.Exemplars()
	if len(exs) != 1 || len(exs[0].Spans) == 0 {
		t.Fatalf("exemplar missing spans: %+v", exs)
	}

	prof := ProfileRules(rs)
	if prof.TotalInsts == 0 || len(prof.Rules) != len(rs) {
		t.Fatalf("profile did not aggregate the sweep: %+v", prof)
	}
	for i, rr := range rs {
		got := outcomes(rr)
		for j := range got {
			if got[j] != flighted[i][j] {
				t.Errorf("rule %d inst %d: verdict mutated by profiler: %v vs %v",
					i, j, got[j], flighted[i][j])
			}
		}
	}
}

// TestCacheProbeMetrics checks the vcache probe span/counters: a cold
// run records misses, a warm re-run records hits.
func TestCacheProbeMetrics(t *testing.T) {
	dir := t.TempDir()
	run := func() *obs.Tracer {
		tr := obs.New()
		v := buildVerifier(t, `
			(rule iadd_base
				(lower (has_type ty (iadd x y)))
				(a64_add ty x y))`, Options{Cache: openCache(t, dir)})
		if _, err := v.VerifyAllContext(obs.WithTracer(context.Background(), tr)); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	cold := run().Registry().Counters()
	if cold["vcache.miss"] == 0 || cold["vcache.hit"] != 0 {
		t.Errorf("cold run counters = %v, want misses only", cold)
	}
	warm := run().Registry().Counters()
	if warm["vcache.hit"] == 0 || warm["vcache.miss"] != 0 {
		t.Errorf("warm run counters = %v, want hits only", warm)
	}
}

// TestEscalationSpans checks that ladder retries emit solve.escalation
// spans and the escalation counter.
func TestEscalationSpans(t *testing.T) {
	tr := obs.New()
	// Structural hashing collapses iadd_base's gate-identical sides to a
	// constant circuit (zero search, so budget 1 is never exceeded);
	// disable it so the first attempt genuinely times out and escalates.
	v := buildVerifier(t, `
		(rule iadd_base
			(lower (has_type ty (iadd x y)))
			(a64_add ty x y))`,
		Options{PropagationBudget: 1, RetryBudgets: []int64{0}, NoStructHash: true})
	if _, err := v.VerifyAllContext(obs.WithTracer(context.Background(), tr)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range tr.Events() {
		if ev.Name == obs.PhaseEscalation {
			n++
		}
	}
	if n == 0 {
		t.Error("no solve.escalation spans recorded")
	}
	if tr.Registry().Counter("escalation.attempts").Value() == 0 {
		t.Error("escalation.attempts counter not incremented")
	}
}

func TestSolverStatsAddAndString(t *testing.T) {
	var s SolverStats
	s.Add(SolverStats{Propagations: 10, Conflicts: 2, Decisions: 5, Queries: 1})
	s.Add(SolverStats{Propagations: 5, Conflicts: 1, Decisions: 3, Queries: 2})
	want := SolverStats{Propagations: 15, Conflicts: 3, Decisions: 8, Queries: 3}
	if s != want {
		t.Errorf("Add: got %+v, want %+v", s, want)
	}

	s.addResult(smt.Result{Propagations: 100, Conflicts: 10, Decisions: 20})
	if s.Propagations != 115 || s.Conflicts != 13 || s.Decisions != 28 || s.Queries != 4 {
		t.Errorf("addResult: got %+v", s)
	}

	line := s.String()
	if !strings.Contains(line, "props=115") || !strings.Contains(line, "conflicts=13") ||
		!strings.Contains(line, "decisions=28") || !strings.Contains(line, "queries=4") {
		t.Errorf("String() = %q", line)
	}
}
