package bench

import (
	"fmt"
	"sort"
)

// Tolerances are the perf-regression gate's per-metric thresholds.
// Verdict-shape metrics (rule/instantiation counts, failure and
// inapplicable outcomes) have no tolerance: they are deterministic, so
// any drift is a regression (or an un-regenerated baseline). Timeouts
// and wall time are resources, so they get slack.
type Tolerances struct {
	// MaxWallRatio bounds current wall time per phase at
	// MaxWallRatio * baseline. <= 0 disables wall-time checks (useful
	// when the baseline came from different hardware).
	MaxWallRatio float64
	// MaxTimeoutDelta bounds how many additional timeouts per phase the
	// current run may show over the baseline. Fewer timeouts is never a
	// regression. Negative disables the check.
	MaxTimeoutDelta int
}

// DefaultTolerances are the CI gate's settings: 2x wall-time headroom
// (runner noise) and up to 2 extra timeouts per phase (wall-clock
// scheduling jitter near the deadline; the deterministic
// propagation-budget timeouts cannot drift at all).
func DefaultTolerances() Tolerances {
	return Tolerances{MaxWallRatio: 2.0, MaxTimeoutDelta: 2}
}

// Regression is one threshold violation found by Compare.
type Regression struct {
	Phase  string // "report", "incremental_cold", "incremental_warm_cache"
	Metric string
	Detail string
}

func (r Regression) String() string {
	return fmt.Sprintf("%s/%s: %s", r.Phase, r.Metric, r.Detail)
}

// Compare checks a current report against a committed baseline and
// returns every threshold violation (empty = gate passes). The two
// reports must describe the same experiment — same corpus, timeout, and
// propagation budget — otherwise the comparison itself is flagged.
func Compare(baseline, current *Report, tol Tolerances) []Regression {
	var regs []Regression
	flag := func(phase, metric, format string, args ...any) {
		regs = append(regs, Regression{Phase: phase, Metric: metric, Detail: fmt.Sprintf(format, args...)})
	}

	if baseline.Corpus != current.Corpus {
		flag("report", "corpus", "baseline %q vs current %q", baseline.Corpus, current.Corpus)
	}
	if baseline.TimeoutNS != current.TimeoutNS {
		flag("report", "timeout_ns", "baseline %d vs current %d (not the same experiment)", baseline.TimeoutNS, current.TimeoutNS)
	}
	if baseline.Budget != current.Budget {
		flag("report", "propagation_budget", "baseline %d vs current %d (not the same experiment)", baseline.Budget, current.Budget)
	}
	if !current.VerdictsMatch {
		flag("report", "verdicts_match", "cold and warm sweeps disagree on verdicts in the current run")
	}

	phases := []struct {
		name      string
		base, cur *Phase
	}{
		{"incremental_cold", &baseline.IncrementalCold, &current.IncrementalCold},
		{"incremental_warm_cache", &baseline.IncrementalWarm, &current.IncrementalWarm},
	}
	for _, p := range phases {
		comparePhase(p.name, p.base, p.cur, tol, flag)
	}
	return regs
}

func comparePhase(name string, base, cur *Phase, tol Tolerances, flag func(phase, metric, format string, args ...any)) {
	if base.Rules != cur.Rules {
		flag(name, "rules", "baseline %d vs current %d", base.Rules, cur.Rules)
	}
	if base.Insts != cur.Insts {
		flag(name, "instantiations", "baseline %d vs current %d", base.Insts, cur.Insts)
	}

	// Decided verdict counts: failures and inapplicables are
	// deterministic and must match exactly. Success may only shrink by
	// what moved into the timeout column (covered by the timeout check);
	// a success count that shrinks beyond that is a verdict regression.
	for _, outcome := range []string{"failure", "inapplicable", "error"} {
		if b, c := base.Outcomes[outcome], cur.Outcomes[outcome]; b != c {
			flag(name, "outcomes."+outcome, "baseline %d vs current %d", b, c)
		}
	}
	bt, ct := base.Outcomes["timeout"], cur.Outcomes["timeout"]
	if tol.MaxTimeoutDelta >= 0 && ct > bt+tol.MaxTimeoutDelta {
		flag(name, "outcomes.timeout", "baseline %d vs current %d (max delta %d)", bt, ct, tol.MaxTimeoutDelta)
	}
	if bs, cs := base.Outcomes["success"], cur.Outcomes["success"]; cs+ct < bs+bt {
		flag(name, "outcomes.success", "success+timeout shrank: baseline %d+%d vs current %d+%d", bs, bt, cs, ct)
	}

	if tol.MaxWallRatio > 0 && base.WallNS > 0 {
		ratio := float64(cur.WallNS) / float64(base.WallNS)
		if ratio > tol.MaxWallRatio {
			flag(name, "wall_ns", "baseline %.3fs vs current %.3fs (%.2fx > %.2fx allowed)",
				base.WallSeconds, cur.WallSeconds, ratio, tol.MaxWallRatio)
		}
	}
}

// RenderRegressions formats the violations one per line, stably sorted.
func RenderRegressions(regs []Regression) string {
	lines := make([]string, 0, len(regs))
	for _, r := range regs {
		lines = append(lines, "  REGRESSION "+r.String()+"\n")
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l
	}
	return out
}
