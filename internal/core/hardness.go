package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Rule-hardness profiling: aggregate a sweep's per-rule cost — wall
// time, SAT search statistics, escalations, cache state — into a ranked
// profile naming the rules that buy the timeout tail. The profiler is a
// pure fold over RuleResults the sweep already produced; it cannot
// observe anything the verdict path didn't, so profiled runs verify
// byte-identically to plain runs (the differential tests assert this).

// RuleHardness is one rule's aggregated cost.
type RuleHardness struct {
	Rule   string `json:"rule"`
	WallNS int64  `json:"wall_ns"`

	// Outcome counts across the rule's instantiations.
	Insts        int `json:"insts"`
	Success      int `json:"success,omitempty"`
	Inapplicable int `json:"inapplicable,omitempty"`
	Failure      int `json:"failure,omitempty"`
	Timeout      int `json:"timeout,omitempty"`
	Error        int `json:"error,omitempty"`
	Cached       int `json:"cached,omitempty"`

	// SolverStats is the SAT search and structural-hashing work summed
	// over the rule's queries.
	SolverStats

	// Escalations is the total timeout-ladder retries the rule consumed.
	Escalations int `json:"escalations,omitempty"`
}

// HardnessProfile is the sweep-level artifact: rules ranked hardest
// first, plus the sweep totals the ranking is read against.
type HardnessProfile struct {
	Corpus      string         `json:"corpus,omitempty"`
	TimeoutNS   int64          `json:"timeout_ns,omitempty"`
	Budget      int64          `json:"propagation_budget,omitempty"`
	Rules       []RuleHardness `json:"rules"`
	TotalWallNS int64          `json:"total_wall_ns"`
	TotalInsts  int            `json:"total_insts"`
	// TimeoutRules lists the rules with at least one timed-out
	// instantiation, hardest first — the tail open item 5 attacks next.
	TimeoutRules []string `json:"timeout_rules"`
}

// AddRule folds one rule's instantiation outcomes into the profile.
// Call Finalize after the last rule to rank and index the result.
func (p *HardnessProfile) AddRule(name string, insts []InstOutcome) {
	h := RuleHardness{Rule: name, Insts: len(insts)}
	for _, io := range insts {
		h.WallNS += io.Duration.Nanoseconds()
		switch io.Outcome {
		case OutcomeSuccess:
			h.Success++
		case OutcomeInapplicable:
			h.Inapplicable++
		case OutcomeFailure:
			h.Failure++
		case OutcomeTimeout:
			h.Timeout++
		case OutcomeError:
			h.Error++
		}
		if io.Cached {
			h.Cached++
		}
		h.Escalations += io.Escalations
		h.Add(io.Stats)
	}
	p.Rules = append(p.Rules, h)
	p.TotalWallNS += h.WallNS
	p.TotalInsts += h.Insts
}

// Finalize ranks the profile with a timeout-first ordering: any rule
// with timeouts sorts before every rule without, then by wall time
// descending — so the top of the table is exactly the tail worth
// attacking — and indexes the timeout rules.
func (p *HardnessProfile) Finalize() {
	sort.SliceStable(p.Rules, func(i, j int) bool {
		a, b := p.Rules[i], p.Rules[j]
		if (a.Timeout > 0) != (b.Timeout > 0) {
			return a.Timeout > 0
		}
		if a.WallNS != b.WallNS {
			return a.WallNS > b.WallNS
		}
		return a.Rule < b.Rule
	})
	p.TimeoutRules = nil
	for _, h := range p.Rules {
		if h.Timeout > 0 {
			p.TimeoutRules = append(p.TimeoutRules, h.Rule)
		}
	}
}

// ProfileRules folds a sweep's results into a finalized hardness
// profile.
func ProfileRules(results []*RuleResult) *HardnessProfile {
	p := &HardnessProfile{}
	for _, rr := range results {
		if rr == nil {
			continue
		}
		p.AddRule(rr.Rule.Name, rr.Insts)
	}
	p.Finalize()
	return p
}

// TimeoutInsts counts timed-out instantiations across the profile.
func (p *HardnessProfile) TimeoutInsts() int {
	n := 0
	for _, h := range p.Rules {
		n += h.Timeout
	}
	return n
}

// Render prints the top-K hardness table. Durations are exact
// nanosecond counts formatted as seconds; the table is advisory output
// on top of the byte-stable verdict lines, not part of them.
func (p *HardnessProfile) Render(topK int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== rule hardness (top %d of %d; %d timeout rules, %d timeout insts) ===\n",
		min(topK, len(p.Rules)), len(p.Rules), len(p.TimeoutRules), p.TimeoutInsts())
	fmt.Fprintf(&sb, "%-30s %9s %5s %5s %12s %10s %9s %8s %6s\n",
		"rule", "wall", "t/o", "esc", "props", "conflicts", "restarts", "queries", "cached")
	for i, h := range p.Rules {
		if i >= topK {
			break
		}
		fmt.Fprintf(&sb, "%-30s %8.2fs %5d %5d %12d %10d %9d %8d %3d/%-3d\n",
			h.Rule, time.Duration(h.WallNS).Seconds(), h.Timeout, h.Escalations,
			h.Propagations, h.Conflicts, h.Restarts, h.Queries, h.Cached, h.Insts)
	}
	return sb.String()
}

// WriteJSON writes the profile as indented JSON.
func (p *HardnessProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// WriteJSONFile writes the profile atomically (temp + rename) to path.
func (p *HardnessProfile) WriteJSONFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".hardness-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := p.WriteJSON(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
