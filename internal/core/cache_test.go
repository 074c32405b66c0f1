package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"crocus/internal/vcache"
)

const cacheRules = `
	(rule c_add
		(lower (has_type ty (iadd x y)))
		(a64_add ty x y))
	(rule c_add_swapped
		(lower (has_type ty (iadd y x)))
		(a64_add ty x y))
	(rule c_rotr_broken
		(lower (rotr x y))
		(a64_rotr_64 x y))`

// flatten collapses rule results to the fields cached replay must
// preserve: outcome, counterexample, distinctness, assignment count and
// every SAT counter.
type flatInst struct {
	Rule, Sig   string
	Outcome     Outcome
	Rendered    string
	Distinct    *bool
	Assignments int
	Stats       SolverStats
}

func flatten(t *testing.T, rs []*RuleResult) []flatInst {
	t.Helper()
	var out []flatInst
	for _, rr := range rs {
		for _, io := range rr.Insts {
			fi := flatInst{
				Rule:        rr.Rule.Name,
				Outcome:     io.Outcome,
				Distinct:    io.DistinctInputs,
				Assignments: io.Assignments,
				Stats:       io.Stats,
			}
			if io.Sig != nil {
				fi.Sig = io.Sig.String()
			}
			if io.Counterexample != nil {
				fi.Rendered = io.Counterexample.Rendered
			}
			out = append(out, fi)
		}
	}
	return out
}

// TestCacheEnabledMatchesDisabled: with and without the cache — cold and
// warm — VerifyAll returns identical statuses and counterexamples.
func TestCacheEnabledMatchesDisabled(t *testing.T) {
	plain := buildVerifier(t, cacheRules, Options{})
	base, err := plain.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(t, base)

	cache := vcache.NewMemory()
	cold := buildVerifier(t, cacheRules, Options{Cache: cache})
	coldRes, err := cold.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(t, coldRes); !reflect.DeepEqual(got, want) {
		t.Fatalf("cold cached run differs from uncached:\n%+v\n%+v", got, want)
	}
	if s := cache.Stats(); s.Hits != 0 || s.Misses == 0 {
		t.Fatalf("cold stats = %+v", s)
	}

	warm := buildVerifier(t, cacheRules, Options{Cache: cache})
	warmRes, err := warm.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(t, warmRes); !reflect.DeepEqual(got, want) {
		t.Fatalf("warm cached run differs from uncached:\n%+v\n%+v", got, want)
	}
	s := cache.Stats()
	if s.Misses != s.Hits || s.Stale != 0 {
		t.Fatalf("warm run not fully hit: %+v", s)
	}
	for _, rr := range warmRes {
		for _, io := range rr.Insts {
			if io.Assignments > 0 && !io.Cached {
				t.Errorf("%s %s: not served from cache on warm run", rr.Rule.Name, io.Sig)
			}
		}
	}
}

// TestCacheConcurrentVerifyAll exercises the cache under Parallelism with
// a disk-backed store (run with -race): concurrent workers share one
// store without duplicate solves or data races, and a second parallel
// run is all hits.
func TestCacheConcurrentVerifyAll(t *testing.T) {
	dir := t.TempDir()
	cache, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := buildVerifier(t, cacheRules, Options{Parallelism: 4, Cache: cache})
	r1, err := v1.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	units := cache.Len()
	if s := cache.Stats(); s.Misses != uint64(units) || units == 0 {
		t.Fatalf("cold parallel run: %d units, stats %+v (duplicate solves?)", units, s)
	}

	cache2, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2 := buildVerifier(t, cacheRules, Options{Parallelism: 4, Cache: cache2})
	r2, err := v2.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if s := cache2.Stats(); s.Misses != 0 || s.Hits != uint64(units) {
		t.Fatalf("warm parallel run stats = %+v, want %d hits", s, units)
	}
	if !reflect.DeepEqual(flatten(t, r1), flatten(t, r2)) {
		t.Fatal("parallel cached runs disagree")
	}
}

// TestCacheSingleRuleInvalidation: editing one rule's text must miss only
// that rule's units; every other entry still hits.
func TestCacheSingleRuleInvalidation(t *testing.T) {
	dir := t.TempDir()
	cache, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := buildVerifier(t, cacheRules, Options{Cache: cache})
	if _, err := v1.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	total := cache.Len()

	// Same program with c_add_swapped's RHS edited (y duplicated).
	mutated := `
	(rule c_add
		(lower (has_type ty (iadd x y)))
		(a64_add ty x y))
	(rule c_add_swapped
		(lower (has_type ty (iadd y x)))
		(a64_add ty y y))
	(rule c_rotr_broken
		(lower (rotr x y))
		(a64_rotr_64 x y))`
	cache2, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2 := buildVerifier(t, mutated, Options{Cache: cache2})
	if _, err := v2.VerifyAll(); err != nil {
		t.Fatal(err)
	}
	s := cache2.Stats()
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4 (only c_add_swapped's instantiations)", s.Misses)
	}
	if s.Hits != uint64(total)-4 {
		t.Errorf("hits = %d, want %d (all untouched rules)", s.Hits, total-4)
	}
}

// hardMulRules is the hard_mul pattern from TestVerifyTimeout
// (distributivity over a 64-bit multiplier), which no budget or deadline
// in these tests decides.
const hardMulRules = `
	(decl imul (Value Value) Inst)
	(spec (imul x y) (provide (= result (+ (* x y) x))))
	(instantiate imul ((args (bv 64) (bv 64)) (ret (bv 64))))
	(decl a64_madd_hard (Type Reg Reg) Reg)
	(spec (a64_madd_hard ty x y) (provide (= result (* x (+ y #x0000000000000001)))))
	(rule hard_mul
		(lower (has_type ty (imul x y)))
		(a64_madd_hard ty x y))`

// TestCacheSameSettingsRerunReplaysEveryUnit pins what makes the cache a
// sweep's record of progress: a rerun with identical Options over the
// same store — a fresh Verifier on a reopened directory, as after a kill
// — replays every unit with no miss and no stale entry, and returns the
// verdicts of the first run. The hard_mul unit times out in every case,
// so each case checks that a timeout cached under these settings is not
// stale under the same settings.
func TestCacheSameSettingsRerunReplaysEveryUnit(t *testing.T) {
	rules := hardMulRules + cacheRules
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"base budget", Options{PropagationBudget: 2000, Timeout: time.Minute}},
		{"ladder without a 0 rung", Options{PropagationBudget: 2000, RetryBudgets: []int64{4000, 8000}, Timeout: time.Minute}},
		{"ladder ending in a 0 rung", Options{PropagationBudget: 2000, RetryBudgets: []int64{4000, 0}, Timeout: 200 * time.Millisecond}},
		{"deadline only", Options{Timeout: 200 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			run := func() ([]*RuleResult, vcache.Stats) {
				cache := openCache(t, dir)
				opts := tc.opts
				opts.Cache = cache
				rs, err := buildVerifier(t, rules, opts).VerifyAll()
				if err != nil {
					t.Fatal(err)
				}
				if err := cache.Close(); err != nil {
					t.Fatal(err)
				}
				return rs, cache.Stats()
			}
			first, cold := run()
			if first[0].Rule.Name != "hard_mul" || first[0].Outcome() != OutcomeTimeout {
				t.Fatalf("hard_mul: %v, want a timeout", first[0].Outcome())
			}
			again, warm := run()
			if probes := cold.Hits + cold.Misses; warm.Misses != 0 || warm.Stale != 0 || warm.Hits != probes {
				t.Fatalf("rerun probed %v, want %d hits and nothing else", warm, probes)
			}
			if got, want := flatten(t, again), flatten(t, first); !reflect.DeepEqual(got, want) {
				t.Fatalf("rerun verdicts differ:\n%+v\n%+v", got, want)
			}
		})
	}
}

// TestCacheTimeoutRetriedUnderLongerDeadline: a timeout cached under one
// deadline is replayed for equal-or-shorter deadlines but stale — and
// re-solved — once a longer deadline is requested.
func TestCacheTimeoutRetriedUnderLongerDeadline(t *testing.T) {
	// A tiny propagation budget makes every solve of hardMulRules end in
	// a timeout quickly. The budget is part of the fingerprint (same
	// across runs here); the deadline is not — it is tracked via
	// staleness.
	rules := hardMulRules
	cache := vcache.NewMemory()
	opts := func(d time.Duration) Options {
		return Options{PropagationBudget: 2000, Timeout: d, Cache: cache}
	}

	short := buildVerifier(t, rules, opts(time.Second))
	rr := verifyOnly(t, short, "hard_mul")
	if rr.Outcome() != OutcomeTimeout || rr.Insts[0].Cached {
		t.Fatalf("cold run: outcome %v cached %v", rr.Outcome(), rr.Insts[0].Cached)
	}

	// Same deadline: the cached timeout is an honest hit.
	short2 := buildVerifier(t, rules, opts(time.Second))
	rr = verifyOnly(t, short2, "hard_mul")
	if rr.Outcome() != OutcomeTimeout || !rr.Insts[0].Cached {
		t.Fatalf("same-deadline re-run: outcome %v cached %v", rr.Outcome(), rr.Insts[0].Cached)
	}

	// Longer deadline: the entry is stale and the unit re-solved (it
	// times out again here and is re-cached under the new deadline).
	long := buildVerifier(t, rules, opts(2*time.Second))
	rr = verifyOnly(t, long, "hard_mul")
	if rr.Outcome() != OutcomeTimeout || rr.Insts[0].Cached {
		t.Fatalf("longer deadline should re-solve: outcome %v cached %v",
			rr.Outcome(), rr.Insts[0].Cached)
	}
	if s := cache.Stats(); s.Stale == 0 {
		t.Fatalf("no stale probes recorded: %+v", s)
	}

	// The re-cached attempt is replayed at the longer deadline...
	long2 := buildVerifier(t, rules, opts(2*time.Second))
	rr = verifyOnly(t, long2, "hard_mul")
	if rr.Outcome() != OutcomeTimeout || !rr.Insts[0].Cached {
		t.Fatalf("refreshed timeout not replayed: %v cached=%v", rr.Outcome(), rr.Insts[0].Cached)
	}
	// ...but an unlimited deadline triggers another retry.
	if _, st := cache.Lookup(mustFingerprint(t, long2, "hard_mul"), 0); st != vcache.Stale {
		t.Fatalf("unlimited deadline probe = %v, want stale", st)
	}
}

// openCache opens the disk store under dir for the rest of the test.
func openCache(t *testing.T, dir string) *vcache.Cache {
	t.Helper()
	c, err := vcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func mustFingerprint(t *testing.T, v *Verifier, name string) string {
	t.Helper()
	for _, r := range v.Prog.Rules {
		if r.Name != name {
			continue
		}
		for _, sig := range v.Sigs(r) {
			fp, ok, err := v.FingerprintInstantiation(r, sig)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				return fp
			}
		}
	}
	t.Fatalf("no cacheable unit for %s", name)
	return ""
}

// TestCacheCorruptedStoreStillVerifies: garbage in the store file is
// skipped on open; verification proceeds and repopulates it.
func TestCacheCorruptedStoreStillVerifies(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, vcache.FileName),
		[]byte("garbage\n{\"key\":\"zz\"}\ntruncated{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := vcache.Open(dir)
	if err != nil {
		t.Fatalf("corrupted store should not fail to open: %v", err)
	}
	defer cache.Close()
	v := buildVerifier(t, cacheRules, Options{Cache: cache})
	rr := verifyOnly(t, v, "c_add")
	if rr.Outcome() != OutcomeSuccess {
		t.Fatalf("outcome = %v", rr.Outcome())
	}
	if s := cache.Stats(); s.Misses == 0 {
		t.Fatalf("expected misses against the healed store: %+v", s)
	}
}

// TestEngineSaltBumpOrphansDiskCache simulates the EngineVersion bump
// end to end: a warm disk store whose entries were fingerprinted by a
// different engine salt (rewritten in place to stale keys) must yield
// zero hits — every unit is re-solved rather than trusted — while the
// orphaned generation stays in the JSONL file alongside the fresh one.
func TestEngineSaltBumpOrphansDiskCache(t *testing.T) {
	dir := t.TempDir()
	warmCache := openCache(t, dir)
	warm := buildVerifier(t, cacheRules, Options{Cache: warmCache})
	base, err := warm.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(t, base)
	if err := warmCache.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-key every stored entry as an older engine would have: same
	// content sections, different salt, so no current fingerprint can
	// reach them.
	path := filepath.Join(dir, vcache.FileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var stale []string
	oldKeys := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var e vcache.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("warm store line invalid: %q", line)
		}
		e.Key = vcache.Fingerprint("crocus-engine-stale", []string{e.Key})
		oldKeys[e.Key] = true
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		stale = append(stale, string(b))
	}
	if len(stale) == 0 {
		t.Fatal("warm run persisted no entries")
	}
	if err := os.WriteFile(path, []byte(strings.Join(stale, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// The "bumped" engine finds only orphans: all misses, same verdicts.
	bumpedCache := openCache(t, dir)
	bumped := buildVerifier(t, cacheRules, Options{Cache: bumpedCache})
	res, err := bumped.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := flatten(t, res); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-solve after salt bump differs:\n%+v\n%+v", got, want)
	}
	s := bumpedCache.Stats()
	if s.Hits != 0 {
		t.Fatalf("stale-salt entries were trusted: %+v", s)
	}
	if s.Misses == 0 {
		t.Fatalf("bumped run did not probe the cache: %+v", s)
	}

	// Both generations coexist on disk until a compaction drops orphans.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	oldSeen, newSeen := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(after)), "\n") {
		var e vcache.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("post-bump line invalid: %q", line)
		}
		if oldKeys[e.Key] {
			oldSeen++
		} else {
			newSeen++
		}
	}
	if oldSeen != len(stale) || newSeen == 0 {
		t.Fatalf("store has %d orphaned + %d fresh entries, want %d + >0",
			oldSeen, newSeen, len(stale))
	}
}
