package vcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"crocus/internal/faultinject"
)

func testKey(i int) string {
	return Fingerprint("test", []string{fmt.Sprintf("unit-%d", i)})
}

func put(t *testing.T, c *Cache, e Entry) {
	t.Helper()
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintSectionFraming(t *testing.T) {
	// Length-prefixing must keep adjacent sections from aliasing their
	// concatenation.
	a := Fingerprint("s", []string{"ab", "c"})
	b := Fingerprint("s", []string{"a", "bc"})
	c := Fingerprint("s", []string{"abc"})
	if a == b || a == c || b == c {
		t.Fatalf("section framing collision: %s %s %s", a, b, c)
	}
	if Fingerprint("s", []string{"x"}) != Fingerprint("s", []string{"x"}) {
		t.Fatal("fingerprint not deterministic")
	}
	if Fingerprint("s1", []string{"x"}) == Fingerprint("s2", []string{"x"}) {
		t.Fatal("salt not included in fingerprint")
	}
}

func TestPutLookupRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := true
	e := Entry{
		Key:            testKey(1),
		Rule:           "iadd_base",
		Sig:            "((bv 32)) -> (bv 32)",
		Outcome:        "failure",
		ElapsedNS:      123456,
		Assignments:    2,
		DistinctInputs: &d,
		Stats: SolverStats{Propagations: 10, Conflicts: 2, Decisions: 3, Restarts: 4, Queries: 5,
			StructHashMerged: 9},
		Cex: &Counterexample{
			Inputs:   map[string]Value{"x": {Kind: 1, Width: 32, Bits: 7}},
			LHS:      Value{Kind: 1, Width: 32, Bits: 7},
			RHS:      Value{Kind: 1, Width: 32, Bits: 8},
			Rendered: "(iadd [x|#x00000007] ...)",
		},
	}
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}

	// Tier 1: in-memory hit.
	got, st := c.Lookup(e.Key, 0)
	if st != Hit {
		t.Fatalf("lookup status = %v, want hit", st)
	}
	if got.Cex == nil || got.Cex.Rendered != e.Cex.Rendered || got.Cex.Inputs["x"].Bits != 7 {
		t.Fatalf("counterexample did not roundtrip: %+v", got.Cex)
	}

	// Tier 2: a fresh Cache over the same dir sees the entry.
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, st2 := c2.Lookup(e.Key, 0)
	if st2 != Hit {
		t.Fatalf("persisted lookup status = %v, want hit", st2)
	}
	if got2.Rule != e.Rule || got2.Outcome != e.Outcome || got2.Stats != e.Stats ||
		got2.DistinctInputs == nil || !*got2.DistinctInputs {
		t.Fatalf("persisted entry mismatch: %+v", got2)
	}

	stats := c2.Stats()
	if stats.Hits != 1 || stats.Misses != 0 || stats.SavedNS != e.ElapsedNS {
		t.Fatalf("stats = %+v", stats)
	}
	if _, st := c2.Lookup(testKey(99), 0); st != Miss {
		t.Fatalf("absent key status = %v, want miss", st)
	}
}

func TestTimeoutStaleness(t *testing.T) {
	c := NewMemory()
	e := Entry{Key: testKey(1), Outcome: "timeout", TriedTimeoutNS: int64(time.Second)}
	if err := c.Put(e); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		timeout time.Duration
		want    LookupStatus
	}{
		{time.Second, Hit},            // same budget: still a timeout
		{500 * time.Millisecond, Hit}, // smaller budget: would also time out
		{2 * time.Second, Stale},      // longer budget: retry
		{0, Stale},                    // unlimited: retry
	}
	for _, tc := range cases {
		if _, st := c.Lookup(e.Key, tc.timeout); st != tc.want {
			t.Errorf("timeout=%v: status = %v, want %v", tc.timeout, st, tc.want)
		}
	}
	// A timeout recorded under an unlimited budget never goes stale.
	e2 := Entry{Key: testKey(2), Outcome: "timeout", TriedTimeoutNS: 0}
	if err := c.Put(e2); err != nil {
		t.Fatal(err)
	}
	if _, st := c.Lookup(e2.Key, 0); st != Hit {
		t.Error("unlimited-budget timeout should stay a hit")
	}
	st := c.Stats()
	if st.Stale != 2 {
		t.Errorf("stale count = %d, want 2", st.Stale)
	}
}

func TestCorruptedFileLoadsAndSelfHeals(t *testing.T) {
	dir := t.TempDir()
	good1, _ := json.Marshal(Entry{Key: testKey(1), Outcome: "success", Rule: "r1"})
	good2, _ := json.Marshal(Entry{Key: testKey(2), Outcome: "failure", Rule: "r2"})
	content := strings.Join([]string{
		string(good1),
		"{not json at all",
		`{"key":"deadbeef","outcome":"success"}`,          // bad key length
		`{"key":"` + testKey(3) + `","outcome":"banana"}`, // unknown outcome
		"",
		string(good2)[:len(good2)/2], // torn tail (truncated append)
	}, "\n")
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	c, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on corrupted store: %v", err)
	}
	if c.Len() != 1 {
		t.Fatalf("entries loaded = %d, want 1", c.Len())
	}
	if _, st := c.Lookup(testKey(1), 0); st != Hit {
		t.Fatal("valid entry lost during corrupt load")
	}

	// Self-heal: the rewritten file must now be fully valid.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || !e.valid() {
			t.Fatalf("healed file still has invalid line: %q", line)
		}
	}

	// And additions after healing persist alongside the survivors.
	if err := c.Put(Entry{Key: testKey(4), Outcome: "success"}); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("entries after heal+put = %d, want 2", c2.Len())
	}
}

func TestMissingDirAndMemoryOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "c")
	c, err := Open(dir)
	if err != nil {
		t.Fatalf("Open should create nested dirs: %v", err)
	}
	if err := c.Put(Entry{Key: testKey(1), Outcome: "success"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, FileName)); err != nil {
		t.Fatalf("store file not created: %v", err)
	}

	m, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if m.Path() != "" {
		t.Fatal("empty dir should be memory-only")
	}
	if err := m.Put(Entry{Key: testKey(2), Outcome: "success"}); err != nil {
		t.Fatal(err)
	}
	if _, st := m.Lookup(testKey(2), 0); st != Hit {
		t.Fatal("memory-only put/lookup failed")
	}
}

func TestConcurrentPutLookup(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := testKey(i % 20)
				if _, st := c.Lookup(key, time.Second); st == Miss {
					if err := c.Put(Entry{Key: key, Outcome: "success", ElapsedNS: 1}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 20 {
		t.Fatalf("entries = %d, want 20", c.Len())
	}
	c2, err := Open(c.Path()[:len(c.Path())-len(FileName)-1])
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 20 {
		t.Fatalf("persisted entries = %d, want 20", c2.Len())
	}
}

func TestHitRateZeroProbes(t *testing.T) {
	// Guard for the documented contract: no probes means a 0 hit rate,
	// not NaN and not 1.
	var s Stats
	if got := s.HitRate(); got != 0 {
		t.Fatalf("HitRate() with zero probes = %v, want 0", got)
	}
	s = Stats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("HitRate() = %v, want 0.75", got)
	}
}

func TestStatsStringDegradationLine(t *testing.T) {
	s := Stats{Hits: 2, Misses: 1, Stale: 1, SavedNS: int64(3 * time.Second)}
	line := s.String()
	if strings.Contains(line, "undecodable") {
		t.Fatalf("clean stats should not mention degradation: %q", line)
	}
	if !strings.Contains(line, "2 hits, 1 misses, 1 stale") || !strings.Contains(line, "50% hit rate") {
		t.Fatalf("stats line = %q", line)
	}
	s.DecodeFailures = 3
	line = s.String()
	if !strings.Contains(line, "3 undecodable entries re-solved") {
		t.Fatalf("degraded stats line missing suffix: %q", line)
	}
}

func TestEntriesSorted(t *testing.T) {
	c := NewMemory()
	for _, i := range []int{3, 1, 2} {
		put(t, c, Entry{Key: testKey(i), Outcome: "success"})
	}
	es := c.Entries()
	if len(es) != 3 {
		t.Fatalf("got %d entries", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			t.Fatalf("entries not sorted: %s >= %s", es[i-1].Key[:8], es[i].Key[:8])
		}
	}
}

// TestTornAppendsNeverFlipVerdicts is the chaos invariant for the append
// seam: with corrupt faults tearing a fraction of the appends, a
// reopened store must, for every key, either miss (the torn line healed
// away) or return the exact original outcome. Putting the entries again
// restores full coverage. Injected corruption may lose entries, never
// rewrite verdicts.
func TestTornAppendsNeverFlipVerdicts(t *testing.T) {
	dir := t.TempDir()
	want := map[string]string{}
	entries := make([]Entry, 40)
	for i := range entries {
		outcome := "success"
		if i%3 == 0 {
			outcome = "failure"
		}
		entries[i] = Entry{Key: testKey(i), Rule: fmt.Sprintf("rule-%d", i), Outcome: outcome}
		want[entries[i].Key] = outcome
	}

	// Half the appends tear mid-line. The writer cannot see the damage:
	// a torn write looks complete to it, as with a real crash.
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm("vcache.append=corrupt:0.5,seed=11"); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		put(t, c, e)
	}
	closeErr := c.Close()
	faultinject.Reset()
	if closeErr != nil {
		t.Fatal(closeErr)
	}

	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	survivors := 0
	for key, outcome := range want {
		e, st := c.Lookup(key, 0)
		if st == Miss {
			continue // torn away: lost, which is safe
		}
		if e.Outcome != outcome {
			t.Fatalf("key %s: outcome %q after torn appends, want %q: corruption flipped a verdict", key[:12], e.Outcome, outcome)
		}
		survivors++
	}
	if survivors == 0 || survivors == len(want) {
		t.Fatalf("%d of %d entries survived; the test needs both torn and intact entries", survivors, len(want))
	}
	t.Logf("%d of %d entries survived the torn appends", survivors, len(want))

	// Healing: putting every entry again cleanly restores the lost ones.
	for _, e := range entries {
		put(t, c, e)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for key, outcome := range want {
		e, st := c.Lookup(key, 0)
		if st != Hit || e.Outcome != outcome {
			t.Fatalf("key %s: %v/%q after healing puts, want Hit/%q", key[:12], st, e.Outcome, outcome)
		}
	}
}
