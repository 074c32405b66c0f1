package core_test

// Scheduling-independence tests: every verification unit solves on its
// own builder and session, so a unit's result is a function of the unit
// alone. A serial sweep (Parallelism 1, rule-level containment) and a
// unit-scheduled sweep (Parallelism 4, work stealing) must therefore
// agree exactly on every unit, timeouts included: outcome,
// distinct-models verdict, rendered counterexample bytes, and the SAT
// work of every query (SolverStats). Budgets are propagation counts,
// never the wall clock, so the comparison is machine-independent.
//
// This file lives in package core_test because internal/corpus imports
// internal/core.

import (
	"fmt"
	"testing"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
)

// schedBudget is the sweep-cold benchmark configuration's per-unit
// budget: the bulk of every corpus decides under it and the
// mul/div/rem tail times out, so both sides of the timeout line are
// compared.
const schedBudget = 400_000

// unitVerdict is one per-instantiation result in comparable form.
type unitVerdict struct {
	name     string
	outcome  core.Outcome
	distinct string
	cex      string // rendered counterexample, "" without one
	stats    core.SolverStats
}

func flattenResults(rs []*core.RuleResult) []unitVerdict {
	var out []unitVerdict
	for _, rr := range rs {
		for _, io := range rr.Insts {
			sig := ""
			if io.Sig != nil {
				sig = io.Sig.String()
			}
			u := unitVerdict{
				name:    fmt.Sprintf("%s @ %s", rr.Rule.Name, sig),
				outcome: io.Outcome,
				stats:   io.Stats,
			}
			if io.DistinctInputs != nil {
				u.distinct = fmt.Sprintf("%v", *io.DistinctInputs)
			}
			if io.Counterexample != nil {
				u.cex = io.Counterexample.Rendered
			}
			out = append(out, u)
		}
	}
	return out
}

// diffScheduledSerial sweeps prog serially and unit-scheduled with
// otherwise identical options and requires identical per-unit results.
func diffScheduledSerial(t *testing.T, prog *isle.Program, distinct bool) {
	t.Helper()
	mk := func(par int) []unitVerdict {
		v := core.New(prog, core.Options{
			PropagationBudget: schedBudget,
			DistinctModels:    distinct,
			Parallelism:       par,
		})
		rs, err := v.VerifyAll()
		if err != nil {
			t.Fatal(err)
		}
		return flattenResults(rs)
	}
	serial, sched := mk(1), mk(4)
	if len(serial) != len(sched) {
		t.Fatalf("unit count differs: serial %d, scheduled %d", len(serial), len(sched))
	}
	for i := range serial {
		if serial[i] != sched[i] {
			t.Errorf("results diverge on %s:\n  serial:    %v distinct=%q %s\n%s\n  scheduled: %v distinct=%q %s\n%s",
				serial[i].name,
				serial[i].outcome, serial[i].distinct, serial[i].stats, serial[i].cex,
				sched[i].outcome, sched[i].distinct, sched[i].stats, sched[i].cex)
		}
	}
}

// skipUnderRace skips the full-corpus sweeps that exceed the race
// detector's time budget (they are pure solver workloads; the x64 and
// midend sweeps cover the same concurrent code paths under race).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceDetectorEnabled {
		t.Skip("full-corpus sweep is too slow under -race")
	}
}

func TestScheduledMatchesSerialAarch64(t *testing.T) {
	skipUnderRace(t)
	prog, err := corpus.LoadAarch64()
	if err != nil {
		t.Fatal(err)
	}
	diffScheduledSerial(t, prog, false)
}

// TestScheduledMatchesSerialDistinctModels covers the §3.2.1 extra
// query, and the distinct-models failures it reports, on the corpus
// that has them.
func TestScheduledMatchesSerialDistinctModels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	skipUnderRace(t)
	prog, err := corpus.LoadAarch64()
	if err != nil {
		t.Fatal(err)
	}
	diffScheduledSerial(t, prog, true)
}

func TestScheduledMatchesSerialX64(t *testing.T) {
	prog, err := corpus.LoadX64()
	if err != nil {
		t.Fatal(err)
	}
	diffScheduledSerial(t, prog, false)
}

func TestScheduledMatchesSerialMidend(t *testing.T) {
	prog, err := corpus.LoadMidend()
	if err != nil {
		t.Fatal(err)
	}
	diffScheduledSerial(t, prog, false)
}

// TestScheduledMatchesSerialBugs replays every reproduced defect, each
// under its own DistinctModels flag: the counterexamples that reproduce
// the CVEs must come out byte-identical whatever the scheduling.
func TestScheduledMatchesSerialBugs(t *testing.T) {
	skipUnderRace(t)
	for _, b := range corpus.Bugs() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			prog, err := corpus.LoadBug(b)
			if err != nil {
				t.Fatal(err)
			}
			diffScheduledSerial(t, prog, b.DistinctModels)
		})
	}
}
