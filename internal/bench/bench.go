// Package bench runs the repo's pinned benchmark sweeps and renders
// them in the BENCH_*.json schema the repo has carried since PR 2: the
// same corpus swept cold (empty result cache) and then warm (a replay
// of the cold sweep's cache), plus the cold sweep's observability
// breakdown and a cross-sweep verdict compatibility check. crocus-bench
// is its one entry point; it also compares a report against a committed
// baseline (see compare.go).
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"crocus/internal/core"
	"crocus/internal/isle"
	"crocus/internal/obs"
)

// Phase summarizes one full-corpus verification sweep.
type Phase struct {
	WallNS      int64          `json:"wall_ns"`
	WallSeconds float64        `json:"wall_seconds"`
	Rules       int            `json:"rules"`
	Insts       int            `json:"instantiations"`
	Outcomes    map[string]int `json:"outcomes"`
	Cached      int            `json:"cached"`
	// Aggregate SAT statistics across every unit of the sweep.
	Propagations int64 `json:"propagations"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Queries      int64 `json:"queries"`
}

// Obs is the report's observability section, collected by tracing the
// cold sweep: where the pipeline's time goes by phase, and
// which simplify rules carry the load.
type Obs struct {
	// PhaseTotalsNS sums span wall time per phase name across the sweep.
	PhaseTotalsNS map[string]int64 `json:"phase_totals_ns"`
	// SimplifyRuleHits counts rewrite-rule firings ("simplify.rule.*"
	// counters, trimmed of the prefix).
	SimplifyRuleHits map[string]int64 `json:"simplify_rule_hits"`
	// Counters is the rest of the metrics registry (cache probes, blast
	// sizes, SAT search totals).
	Counters map[string]int64 `json:"counters"`
}

// Report is the schema of the BENCH_*.json artifact. The phase JSON tags
// keep their historical names so committed baselines stay readable.
type Report struct {
	Corpus    string `json:"corpus"`
	TimeoutNS int64  `json:"timeout_ns"`
	// Budget records the deterministic propagation budget the sweeps ran
	// under (0 = wall-clock only). The regression gate pins it so timeout
	// counts are machine-independent.
	Budget          int64 `json:"propagation_budget,omitempty"`
	Parallel        int   `json:"parallel"`
	IncrementalCold Phase `json:"incremental_cold"`
	IncrementalWarm Phase `json:"incremental_warm_cache"`
	// VerdictsMatch reports that no instantiation was decided
	// contradictorily between the cold and warm sweeps. Timeouts are
	// resource artifacts, not verdicts: a query near the wall-clock
	// deadline can finish in one sweep and not the other, so
	// success/timeout flips are compatible, while success vs failure is a
	// real disagreement.
	VerdictsMatch bool `json:"verdicts_match"`
	// Obs is the cold sweep's phase/rule breakdown (the same data
	// `crocus -metrics` prints, in machine-readable form).
	Obs Obs `json:"obs"`
}

// Run sweeps the program cold, then warm against the cold sweep's
// result cache, and assembles the report. The cold sweep runs traced
// (feeding the obs section); its tracer is returned so callers can
// export the Chrome trace as a CI artifact.
func Run(prog *isle.Program, base core.Options, corpusName string) (*Report, *obs.Tracer, error) {
	cacheDir, err := os.MkdirTemp("", "crocus-bench-cache-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(cacheDir)

	report := &Report{
		Corpus:    corpusName,
		TimeoutNS: base.Timeout.Nanoseconds(),
		Budget:    base.PropagationBudget,
		Parallel:  base.Parallelism,
	}

	// The cold sweep runs traced. The overhead is part of its measured
	// wall time, which is fair: the artifact documents what a traced run
	// costs.
	opts := base
	opts.CacheDir = cacheDir
	tr := obs.New()
	coldPh, coldV, err := sweep(prog, opts, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("cold sweep: %w", err)
	}
	report.IncrementalCold = coldPh
	report.Obs = CollectObs(tr)

	warmPh, warmV, err := sweep(prog, opts, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("warm sweep: %w", err)
	}
	report.IncrementalWarm = warmPh

	report.VerdictsMatch = CompatibleVerdicts(coldV, warmV)
	return report, tr, nil
}

// sweep runs one full verification pass and folds it into a Phase plus
// the per-instantiation verdict sequence.
func sweep(prog *isle.Program, opts core.Options, tr *obs.Tracer) (Phase, []string, error) {
	v := core.New(prog, opts)
	ctx := obs.WithTracer(context.Background(), tr)
	start := time.Now()
	rs, err := v.VerifyAllContext(ctx)
	wall := time.Since(start)
	if cerr := v.CloseCache(); cerr != nil && err == nil {
		err = fmt.Errorf("cache flush: %w", cerr)
	}
	if err != nil {
		return Phase{}, nil, err
	}
	ph := Phase{
		WallNS:      wall.Nanoseconds(),
		WallSeconds: wall.Seconds(),
		Rules:       len(rs),
		Outcomes:    map[string]int{},
	}
	var verdicts []string
	for _, rr := range rs {
		for _, io := range rr.Insts {
			ph.Insts++
			ph.Outcomes[io.Outcome.String()]++
			if io.Cached {
				ph.Cached++
			}
			ph.Propagations += io.Stats.Propagations
			ph.Conflicts += io.Stats.Conflicts
			ph.Decisions += io.Stats.Decisions
			ph.Queries += io.Stats.Queries
			verdicts = append(verdicts, io.Outcome.String())
		}
	}
	return ph, verdicts, nil
}

// CollectObs flattens a traced sweep's tracer into the report's obs
// section: per-phase wall-time totals, simplify-rule hit counts, and
// the remaining counters.
func CollectObs(tr *obs.Tracer) Obs {
	out := Obs{
		PhaseTotalsNS:    map[string]int64{},
		SimplifyRuleHits: map[string]int64{},
		Counters:         map[string]int64{},
	}
	for phase, d := range tr.PhaseBreakdown().PhaseTotals() {
		out.PhaseTotalsNS[phase] = d.Nanoseconds()
	}
	const rulePrefix = "simplify.rule."
	for name, v := range tr.Registry().Counters() {
		if rule, ok := strings.CutPrefix(name, rulePrefix); ok {
			out.SimplifyRuleHits[rule] = v
		} else {
			out.Counters[name] = v
		}
	}
	return out
}

// CompatibleVerdicts compares per-instantiation outcome sequences.
// Decided outcomes must match exactly; "timeout" is compatible with
// anything (the sweeps run against a wall clock, so queries near the
// deadline legitimately decide in one sweep and not another).
func CompatibleVerdicts(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && a[i] != "timeout" && b[i] != "timeout" {
			return false
		}
	}
	return true
}

// WriteFile writes the report as indented JSON, trailing newline
// included (the BENCH_*.json house style).
func (r *Report) WriteFile(path string) error {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	return os.WriteFile(path, out, 0o644)
}

// ReadFile loads a committed BENCH_*.json baseline.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
