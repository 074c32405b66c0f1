package chaos

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/faultinject"
	"crocus/internal/isle"
	"crocus/internal/vcache"
)

// chaosOpts are the sweep options every run in this suite shares: a
// propagation budget makes hard units time out deterministically
// (machine-independent), and the generous wall deadline keeps delay
// faults from turning decided units into wall-clock timeouts.
func chaosOpts() core.Options {
	return chaosOptsAt(4)
}

// chaosOptsAt is chaosOpts on a pool of par workers.
func chaosOptsAt(par int) core.Options {
	return core.Options{
		Timeout:           60 * time.Second,
		Parallelism:       par,
		PropagationBudget: 200_000,
	}
}

// sweep runs a full corpus sweep and flattens it to unit-keyed outcomes.
func sweep(t *testing.T, load func() (*isle.Program, error), opts core.Options) map[string]string {
	t.Helper()
	prog, err := load()
	if err != nil {
		t.Fatal(err)
	}
	v := core.New(prog, opts)
	rs, err := v.VerifyAllContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, rr := range rs {
		for i, io := range rr.Insts {
			sig := "<nil>"
			if io.Sig != nil {
				sig = io.Sig.String()
			}
			out[fmt.Sprintf("%s#%d %s", rr.Rule.Name, i, sig)] = io.Outcome.String()
		}
	}
	return out
}

// TestFaultArmedSweepNeverFlipsVerdicts is the core chaos invariant:
// under injected solver errors, scheduler panics, and delays, every
// unit's outcome is either the clean run's outcome or an explicit
// OutcomeError. A decided verdict must never flip to a different decided
// verdict. Each fault spec is armed on a four-worker sweep and on a
// one-worker sweep; both run the same unit path.
func TestFaultArmedSweepNeverFlipsVerdicts(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	// x64: 84 units with a mix of success, inapplicable, and
	// budget-timeout verdicts — every class must survive injection.
	clean := sweep(t, corpus.LoadX64, chaosOpts())
	if len(clean) == 0 {
		t.Fatal("clean sweep produced no units")
	}

	for _, spec := range []string{
		"smt.solve=error:0.3,seed=1",
		"sat.solve=error:0.2,seed=2",
		"sched.run=panic:0.3,seed=3",
		"smt.solve=delay:0.5:200us,seed=4",
		"smt.solve=error:0.2,sat.solve=error:0.1,sched.run=panic:0.1,seed=5",
	} {
		t.Run(spec, func(t *testing.T) {
			for _, par := range []int{4, 1} {
				armedSweepNeverFlips(t, spec, par, clean)
			}
		})
	}
}

// armedSweepNeverFlips arms spec, sweeps x64 on par workers, and checks
// every unit against the clean sweep: the same outcome or OutcomeError,
// with at least one fault triggered.
func armedSweepNeverFlips(t *testing.T, spec string, par int, clean map[string]string) {
	t.Helper()
	if err := faultinject.Arm(spec); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	armed := sweep(t, corpus.LoadX64, chaosOptsAt(par))
	if len(armed) != len(clean) {
		t.Fatalf("p%d: armed sweep has %d units, clean %d", par, len(armed), len(clean))
	}
	flipped, errored := 0, 0
	for unit, want := range clean {
		got, ok := armed[unit]
		if !ok {
			t.Fatalf("p%d: unit %q missing from armed sweep", par, unit)
		}
		switch got {
		case want:
		case core.OutcomeError.String():
			errored++
		default:
			flipped++
			t.Errorf("p%d: unit %q: clean %q, armed %q — injected fault flipped a verdict", par, unit, want, got)
		}
	}
	if flipped > 0 {
		t.Fatalf("p%d: %d verdicts flipped under %s", par, flipped, spec)
	}
	triggered := uint64(0)
	for _, st := range faultinject.Snapshot() {
		triggered += st.Triggered
	}
	if triggered == 0 {
		t.Fatalf("p%d: no fault triggered under %s; the run is vacuous (%d errored)", par, spec, errored)
	}
	t.Logf("p%d %s: %d/%d units errored, %d faults triggered, 0 flipped", par, spec, errored, len(clean), triggered)
}

// TestInjectedErrorsNeverPoisonCache: a fault-armed run with a cache
// records nothing for its errored units, so a later clean run against
// the same cache solves them fresh and gets real verdicts.
func TestInjectedErrorsNeverPoisonCache(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()

	open := func() *vcache.Cache {
		c, err := vcache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Every solve errors: the sweep completes (contained), all error
	// outcomes, and the cache stays empty. Midend here: all four of its
	// units route through smt.solve, so the armed run decides nothing.
	if err := faultinject.Arm("smt.solve=error:1"); err != nil {
		t.Fatal(err)
	}
	cache := open()
	opts := chaosOpts()
	opts.Cache = cache
	armed := sweep(t, corpus.LoadMidend, opts)
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	faultinject.Reset()

	sawError := false
	for unit, got := range armed {
		if got == core.OutcomeError.String() {
			sawError = true
		} else if got == core.OutcomeSuccess.String() || got == core.OutcomeFailure.String() {
			t.Fatalf("unit %q decided %q with every solve erroring", unit, got)
		}
	}
	if !sawError {
		t.Fatal("no unit errored under smt.solve=error:1; vacuous")
	}
	reopened := open()
	if n := reopened.Len(); n != 0 {
		t.Fatalf("cache holds %d entries after an all-error run; injected errors leaked into the cache", n)
	}
	reopened.Close()

	// Clean run over the same cache dir: full, correct verdicts.
	cache = open()
	opts = chaosOpts()
	opts.Cache = cache
	clean := sweep(t, corpus.LoadMidend, opts)
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	ref := sweep(t, corpus.LoadMidend, chaosOpts())
	for unit, want := range ref {
		if clean[unit] != want {
			t.Fatalf("unit %q: %q after error-armed prior run, want %q", unit, clean[unit], want)
		}
	}
}

// Environment plumbing for the kill/resume child process.
const (
	chaosChildDirEnv    = "CROCUS_CHAOS_CHILD_DIR"
	chaosChildFaultsEnv = "CROCUS_CHAOS_CHILD_FAULTS"
	chaosChildOutName   = "verdicts.txt"
)

// TestChaosChild is the kill/resume loop's subject process, not a test
// in its own right: the parent re-executes the test binary with the env
// set, SIGKILL faults armed at the cache append seam. It prints how many
// units the cache already holds and how many of those are timeouts, runs
// a cached sweep and — only on full completion — writes its verdicts and
// prints the cache's probe counts.
func TestChaosChild(t *testing.T) {
	dir := os.Getenv(chaosChildDirEnv)
	if dir == "" {
		t.Skip("parent-driven helper; run via TestKillResumeVerify")
	}
	if err := faultinject.Arm(os.Getenv(chaosChildFaultsEnv)); err != nil {
		t.Fatal(err)
	}
	// No Reset: the process dies or finishes with faults armed, like a
	// real chaos run.

	cache, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	timeouts := 0
	for _, e := range cache.Entries() {
		if e.Outcome == core.OutcomeTimeout.String() {
			timeouts++
		}
	}
	fmt.Printf("chaos-child: resumed=%d timeouts=%d\n", cache.Len(), timeouts)

	// One worker appends units in source order, so every kill point is
	// reproducible and the budget timeouts of x64's first two rules are
	// among the first units a killed attempt leaves on disk.
	opts := chaosOptsAt(1)
	opts.Cache = cache
	verdicts := sweep(t, corpus.LoadX64, opts)

	var lines []string
	for unit, outcome := range verdicts {
		lines = append(lines, unit+"\t"+outcome)
	}
	sort.Strings(lines)
	if err := os.WriteFile(filepath.Join(dir, chaosChildOutName), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("chaos-child: %s\n", cache.Stats())
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillResumeVerify is the crash-resume chaos loop: run the child
// sweep with SIGKILL faults armed at the cache append seam (the worst
// moment to die — mid-durability-write), let it be killed, and rerun on
// the same directory until one attempt completes. The cache is the only
// record of progress: the completed run's verdicts must match a clean
// in-process sweep exactly, some attempt must have opened on units a
// killed one left behind, and the completing attempt must replay every
// unit it found on disk — no stale entry, no re-solve — cached budget
// timeouts among them.
func TestKillResumeVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/resume loop")
	}
	dir := t.TempDir()

	kills, resumed, resumedMax, resumedTimeouts := 0, 0, 0, 0
	var final vcache.Stats
	completed := false
	const maxAttempts = 40
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$", "-test.v")
		cmd.Env = append(os.Environ(),
			chaosChildDirEnv+"="+dir,
			// Seed varies per attempt so the deterministic kill point
			// moves. Over x64's 84 units an attempt dies after ~25 fresh
			// appends on average, so early attempts are near-certain to be
			// killed mid-durability-write while resumed units (cache hits)
			// hit no fault site — progress is monotone and the loop
			// converges.
			fmt.Sprintf("%s=vcache.append=kill:0.04,seed=%d", chaosChildFaultsEnv, attempt),
		)
		out, err := cmd.CombinedOutput()
		for _, line := range strings.Split(string(out), "\n") {
			if _, err := fmt.Sscanf(line, "chaos-child: resumed=%d timeouts=%d", &resumed, &resumedTimeouts); err == nil && resumed > resumedMax {
				resumedMax = resumed
			}
			fmt.Sscanf(line, "chaos-child: cache: %d hits, %d misses, %d stale",
				&final.Hits, &final.Misses, &final.Stale)
		}
		if err == nil {
			completed = true
			t.Logf("attempt %d completed after %d kills (resumed=%d with %d timeouts, max resumed=%d, %s)",
				attempt, kills, resumed, resumedTimeouts, resumedMax, final)
			break
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("attempt %d: %v\n%s", attempt, err, out)
		}
		ws, ok := ee.Sys().(syscall.WaitStatus)
		if ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
			kills++
			continue // the injected kill: resume on the next attempt
		}
		t.Fatalf("attempt %d failed without SIGKILL: %v\n%s", attempt, err, out)
	}
	if !completed {
		t.Fatalf("no attempt completed in %d tries (%d kills)", maxAttempts, kills)
	}
	if kills == 0 {
		t.Fatal("no attempt was killed; the chaos loop is vacuous")
	}
	if resumedMax == 0 {
		t.Fatal("no attempt opened on prior progress; the cache never carried state across a kill")
	}
	if resumedTimeouts == 0 {
		t.Fatal("the completing attempt opened on no cached timeout; the stale check never met one")
	}
	if final.Stale != 0 || final.Hits < uint64(resumed) {
		t.Fatalf("completing attempt found %d units on disk but probed %s; resume re-solved finished units",
			resumed, final)
	}

	// The survivor's verdicts — accumulated across killed attempts in
	// the cache alone — must match a clean sweep exactly.
	b, err := os.ReadFile(filepath.Join(dir, chaosChildOutName))
	if err != nil {
		t.Fatalf("completed child left no verdict file: %v", err)
	}
	got := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		unit, outcome, ok := strings.Cut(line, "\t")
		if !ok {
			t.Fatalf("malformed verdict line %q", line)
		}
		got[unit] = outcome
	}
	faultinject.Reset()
	want := sweep(t, corpus.LoadX64, chaosOpts())
	if len(got) != len(want) {
		t.Fatalf("chaos run has %d units, clean %d", len(got), len(want))
	}
	for unit, outcome := range want {
		if got[unit] != outcome {
			t.Fatalf("unit %q: chaos %q, clean %q — kill/resume changed a verdict", unit, got[unit], outcome)
		}
	}
}
