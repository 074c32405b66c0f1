package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// TestHardnessProfileJSONFile pins the profile file's per-rule keys,
// the ones the committed HARDNESS_pr10.json uses, and checks that the
// write leaves no temporary file behind.
func TestHardnessProfileJSONFile(t *testing.T) {
	var p HardnessProfile
	p.AddRule("slow", []InstOutcome{
		{Outcome: OutcomeTimeout, Stats: SolverStats{Propagations: 5, Conflicts: 2, Decisions: 3, Restarts: 1, Queries: 1}},
		{Outcome: OutcomeSuccess, Stats: SolverStats{Propagations: 4, Queries: 2, ElimVars: 6}, Escalations: 1},
	})
	p.AddRule("fast", []InstOutcome{{Outcome: OutcomeSuccess, Stats: SolverStats{Queries: 1}}})
	p.Finalize()

	dir := t.TempDir()
	path := filepath.Join(dir, "h.json")
	if err := p.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("directory holds %d files after the write, want 1", len(ents))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Rules        []map[string]any `json:"rules"`
		TimeoutRules []string         `json:"timeout_rules"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := []map[string]any{
		{"rule": "slow", "wall_ns": 0.0, "insts": 2.0, "success": 1.0, "timeout": 1.0,
			"propagations": 9.0, "conflicts": 2.0, "decisions": 3.0, "restarts": 1.0, "queries": 3.0,
			"elim_vars": 6.0, "escalations": 1.0},
		{"rule": "fast", "wall_ns": 0.0, "insts": 1.0, "success": 1.0,
			"propagations": 0.0, "conflicts": 0.0, "decisions": 0.0, "queries": 1.0},
	}
	if !reflect.DeepEqual(got.Rules, want) {
		t.Errorf("rules:\n got  %v\n want %v", got.Rules, want)
	}
	if !slices.Equal(got.TimeoutRules, []string{"slow"}) {
		t.Errorf("timeout_rules = %v", got.TimeoutRules)
	}
}
