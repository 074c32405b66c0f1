package eval

import (
	"reflect"
	"testing"
	"time"

	"crocus/internal/vcache"
)

// reducedCorpus is a handful of fast-solving aarch64 rules, enough to
// exercise the full Table 1 pipeline (strict pass + custom-VC pass share
// one cache) without the multi-minute full-corpus solve times.
var reducedCorpus = []string{
	"band_ishl_right",
	"bor_ishl_right",
	"bxor_ishl_right",
	"ishl_64",
	"ishl_imm",
	"ushr_64",
}

// openCache opens the result store under dir and closes it when the
// test ends (closing twice is a no-op).
func openCache(t *testing.T, dir string) *vcache.Cache {
	t.Helper()
	c, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// TestTable1ColdWarmReducedCorpus is the tentpole acceptance test: a cold
// Table 1 run followed by a warm one over the same cache directory must
// render identical output, hit on every probe, and spend a small fraction
// of the cold run's wall time (the warm run is dominated by parsing).
func TestTable1ColdWarmReducedCorpus(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Timeout: 20 * time.Second,
		Cache:   openCache(t, dir),
		Rules:   reducedCorpus,
	}

	coldStart := time.Now()
	cold, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldWall := time.Since(coldStart)
	if st := cfg.Cache.Stats(); st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("cold cache stats = %+v", st)
	}
	if cold.TotalRules != len(reducedCorpus) {
		t.Fatalf("reduced corpus kept %d rules, want %d", cold.TotalRules, len(reducedCorpus))
	}

	// The warm run reopens the directory: it replays from disk.
	if err := cfg.Cache.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Cache = openCache(t, dir)
	warmStart := time.Now()
	warm, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmWall := time.Since(warmStart)
	ws := cfg.Cache.Stats()
	if ws.Misses != 0 || ws.Stale != 0 || ws.Hits == 0 {
		t.Fatalf("warm run not fully served from cache: %+v", ws)
	}
	if ws.HitRate() != 1 {
		t.Fatalf("warm hit rate = %.0f%%, want 100%%", 100*ws.HitRate())
	}

	if got, want := warm.Render(), cold.Render(); got != want {
		t.Fatalf("warm Table 1 output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", want, got)
	}

	// "Dominated by parse time": the warm run skips every solve. Half the
	// cold wall time is a deliberately loose bound (the real ratio is
	// ~100x; the bound only needs to survive CI noise).
	if warmWall > coldWall/2 {
		t.Errorf("warm run took %v, cold %v; expected warm < cold/2", warmWall, coldWall)
	}
	t.Logf("cold %v, warm %v, warm cache %v", coldWall, warmWall, ws)
}

// TestBugsCachedMatchesUncached: the §4.3/§4.4 bug reproductions must
// report identical detections and details with and without the cache —
// both on the populating run and on a warm replay. A propagation budget
// (rather than a wall-clock deadline) bounds the hard instances so all
// three sweeps are machine-independent and bit-identical by construction;
// units that exceed the budget time out identically everywhere.
func TestBugsCachedMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("bug corpus solve in -short mode")
	}
	cfg := Config{Timeout: time.Hour, PropagationBudget: 5_000_000}
	plain, err := Bugs(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type flat struct {
		ID       string
		Detected bool
		Details  []string
	}
	flatten := func(rs []*BugResult) []flat {
		out := make([]flat, len(rs))
		for i, r := range rs {
			out[i] = flat{ID: r.Bug.ID, Detected: r.Detected, Details: r.Details}
		}
		return out
	}
	want := flatten(plain)
	detected := 0
	for _, f := range want {
		if f.Detected {
			detected++
		}
	}
	// The budget is sized so the fast bugs all reproduce; hard ones
	// (amode's wide multiplies) may deterministically exhaust it, which
	// every sweep below must then report identically.
	if detected == 0 {
		t.Fatal("no bug reproduced within the propagation budget")
	}

	dir := t.TempDir()
	cached := Config{Timeout: time.Hour, PropagationBudget: 5_000_000, Cache: openCache(t, dir)}
	cold, err := Bugs(cached)
	if err != nil {
		t.Fatal(err)
	}
	if st := cached.Cache.Stats(); st.Misses == 0 {
		t.Fatalf("cold bug run cache stats = %+v", st)
	}
	if got := flatten(cold); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold cached bug results differ from uncached:\n%+v\n%+v", got, want)
	}

	if err := cached.Cache.Close(); err != nil {
		t.Fatal(err)
	}
	cached.Cache = openCache(t, dir)
	warm, err := Bugs(cached)
	if err != nil {
		t.Fatal(err)
	}
	if st := cached.Cache.Stats(); st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm bug run not fully served from cache: %+v", st)
	}
	if got := flatten(warm); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm cached bug results differ from uncached:\n%+v\n%+v", got, want)
	}
}
