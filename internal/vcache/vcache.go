// Package vcache makes re-verification incremental: it memoizes the
// outcome of one (rule, type instantiation, options) verification unit
// under a content-addressed fingerprint of its monomorphized SMT
// verification conditions.
//
// The fingerprint is a SHA-256 over a canonical serialization of the
// queries (see smt.CanonicalQuery) plus an engine-version salt, so it is
// independent of hash-consing order and term-construction order, changes
// whenever the rule text, annotations, or type instantiation change the
// generated conditions, and is invalidated wholesale by solver or
// bit-blaster changes (bump the salt).
//
// The store is two-tier: an in-memory map in front of an optional
// disk-persisted JSON-lines file under a configurable cache directory.
// Disk writes are atomic (whole-line appends on a persistent handle;
// compaction goes through a temp file and rename) and loading is
// corruption-tolerant: a truncated or garbled line is skipped, never
// fatal, and a dirty file self-heals by compaction on open.
//
// Durability contract: every Put is written through to the JSONL tier in
// a single write call before it returns, so a process killed between
// Puts loses at most the entry being written (a torn tail the next Open
// tolerates), never a completed one. Flush fsyncs the append handle and
// Close flushes and releases it, both with error returns — long-lived
// hosts (the CLIs at exit, crocus-serve on drain) call Close so disk
// failures surface instead of vanishing with the process.
//
// The store is therefore also a sweep's record of progress: rerunning a
// killed sweep with the same settings on the same directory replays
// every unit the dead process finished and solves only the rest. Its
// cached timeouts were tried under the same deadline and budget, so
// none of them is stale.
package vcache

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crocus/internal/faultinject"
)

// Fingerprint hashes an engine-version salt plus canonical content
// sections into a content address. Sections are length-prefixed so
// distinct section lists cannot collide by concatenation.
func Fingerprint(salt string, sections []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(salt), salt)
	for _, s := range sections {
		fmt.Fprintf(h, "%d:%s", len(s), s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Value is a serializable concrete value (mirrors smt.Value without
// importing it, to keep this package dependency-free).
type Value struct {
	Kind  uint8  `json:"k"` // smt.SortKind
	Width int    `json:"w,omitempty"`
	Bits  uint64 `json:"b"`
}

// Counterexample is a cached lifted counterexample.
type Counterexample struct {
	Inputs   map[string]Value `json:"inputs,omitempty"`
	LHS      Value            `json:"lhs"`
	RHS      Value            `json:"rhs"`
	Rendered string           `json:"rendered"`
}

// SolverStats are cumulative SAT statistics for a verification unit:
// the on-disk form of core.SolverStats, with the same fields in the same
// order (core converts between the two directly) under short keys.
type SolverStats struct {
	Propagations int64 `json:"p,omitempty"`
	Conflicts    int64 `json:"c,omitempty"`
	Decisions    int64 `json:"d,omitempty"`
	// Restarts counts CDCL restarts. Entries written before this field
	// existed replay with 0 (omitempty both ways): stats are advisory
	// metadata, never part of the fingerprint, so no engine-version bump.
	// The same holds for StructHashMerged.
	Restarts int64 `json:"r,omitempty"`
	// Queries counts the SMT queries the unit issued (applicability,
	// distinctness, equivalence, per assignment).
	Queries int64 `json:"q,omitempty"`
	// StructHashMerged counts the gate allocations structural hashing
	// avoided.
	StructHashMerged int64 `json:"m,omitempty"`
}

// Entry is one cached verification-unit result.
type Entry struct {
	// Key is the unit's content fingerprint (hex SHA-256).
	Key string `json:"key"`
	// Rule and Sig are informational (debugging, cache inspection); they
	// are not part of the address.
	Rule string `json:"rule,omitempty"`
	Sig  string `json:"sig,omitempty"`
	// Outcome is the core.Outcome string: success, inapplicable, failure,
	// or timeout.
	Outcome string `json:"outcome"`
	// TriedTimeoutNS is the per-query deadline the unit was solved under
	// (0 = unlimited). Timeout entries become stale when a more generous
	// deadline is requested.
	TriedTimeoutNS int64 `json:"timeout_ns,omitempty"`
	// TriedBudget is the SAT propagation budget of the final solve attempt
	// for timeout entries (0 = unlimited) — with a timeout-escalation
	// ladder, the last rung tried. A cached timeout becomes stale when the
	// caller is prepared to spend a larger budget.
	TriedBudget int64 `json:"budget,omitempty"`
	// ElapsedNS is the original solve time (what a hit saves).
	ElapsedNS int64 `json:"elapsed_ns"`
	// Assignments is how many type assignments monomorphization produced.
	Assignments int `json:"assignments"`
	// DistinctInputs mirrors InstOutcome.DistinctInputs (§3.2.1 check).
	DistinctInputs *bool `json:"distinct,omitempty"`
	// Stats are the unit's cumulative SAT statistics.
	Stats SolverStats `json:"stats,omitempty"`
	// Cex is the lifted counterexample for failure outcomes.
	Cex *Counterexample `json:"cex,omitempty"`
}

var validOutcomes = map[string]bool{
	"success": true, "inapplicable": true, "failure": true, "timeout": true,
}

func (e *Entry) valid() bool {
	return len(e.Key) == 2*sha256.Size && validOutcomes[e.Outcome]
}

// LookupStatus classifies a cache probe.
type LookupStatus int

// Probe outcomes: a fresh hit, an absent key, or a stale entry (a timeout
// recorded under a smaller deadline than the one now requested).
const (
	Miss LookupStatus = iota
	Hit
	Stale
)

func (s LookupStatus) String() string {
	switch s {
	case Hit:
		return "hit"
	case Stale:
		return "stale"
	default:
		return "miss"
	}
}

// Stats counts cache probes and the solve time hits avoided.
type Stats struct {
	Hits, Misses, Stale uint64
	// DecodeFailures counts hits whose entry could not be replayed
	// (undecodable payload) and therefore degraded to a re-solve. A
	// nonzero count signals cache corruption or a schema drift that the
	// engine-version salt did not capture.
	DecodeFailures uint64
	// SavedNS sums the recorded solve time of every hit.
	SavedNS int64
}

// HitRate returns hits / probes in [0,1] (0 for zero probes).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Stale
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// String renders the per-run stats line, including the degradation
// counters (undecodable-entry fallbacks) when any occurred.
func (s Stats) String() string {
	line := fmt.Sprintf("cache: %d hits, %d misses, %d stale (%.0f%% hit rate, saved %v)",
		s.Hits, s.Misses, s.Stale, 100*s.HitRate(),
		time.Duration(s.SavedNS).Round(time.Millisecond))
	if s.DecodeFailures > 0 {
		line += fmt.Sprintf(", %d undecodable entries re-solved", s.DecodeFailures)
	}
	return line
}

// Cache is the two-tier store. All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	mem    map[string]Entry
	path   string   // "" = memory-only
	f      *os.File // persistent append handle (nil: memory-only or closed)
	closed bool

	hits, misses, stale atomic.Uint64
	decodeFailures      atomic.Uint64
	savedNS             atomic.Int64
}

// FileName is the JSON-lines store's file name inside the cache dir.
const FileName = "cache.jsonl"

// NewMemory returns a memory-only cache (tier 1 alone).
func NewMemory() *Cache {
	return &Cache{mem: map[string]Entry{}}
}

// Open loads (or creates) the persistent cache under dir. An empty dir
// yields a memory-only cache. Corrupt lines in an existing store are
// skipped and the file is compacted (atomically) to self-heal; only
// directory/IO failures creating the store are errors.
func Open(dir string) (*Cache, error) {
	c := NewMemory()
	if dir == "" {
		return c, nil
	}
	// Chaos failpoint: a failed open surfaces to the caller exactly like a
	// permission or disk error would.
	if err := faultinject.Hit("vcache.open"); err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("vcache: %w", err)
	}
	c.path = filepath.Join(dir, FileName)
	corrupt, err := c.load()
	if err != nil {
		return nil, err
	}
	if corrupt > 0 {
		// Self-heal: rewrite only the valid entries.
		if err := c.compact(); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.openHandleLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// openHandleLocked (re)opens the persistent append handle. Caller holds mu.
func (c *Cache) openHandleLocked() error {
	f, err := os.OpenFile(c.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	c.f = f
	return nil
}

// load reads the JSONL file into memory, returning how many lines were
// skipped as corrupt. A missing file is an empty cache.
func (c *Cache) load() (corrupt int, err error) {
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("vcache: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil || !e.valid() {
			corrupt++
			continue
		}
		c.mem[e.Key] = e // last write wins
	}
	if sc.Err() != nil {
		// A torn tail (e.g. kill -9 mid-append or an over-long garbage
		// line) is corruption, not failure.
		corrupt++
	}
	return corrupt, nil
}

// compact atomically rewrites the store from memory (temp file +
// rename), one line per key in sorted key order, so two compacted
// stores with the same entries are byte-identical.
func (c *Cache) compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Chaos failpoint: a failed compaction aborts the rewrite before the
	// temp file exists, leaving the original store untouched.
	if err := faultinject.Hit("vcache.compact"); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(c.path), FileName+".tmp*")
	if err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	defer os.Remove(tmp.Name())
	keys := make([]string, 0, len(c.mem))
	for k := range c.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := bufio.NewWriter(tmp)
	for _, k := range keys {
		e := c.mem[k]
		b, err := json.Marshal(e)
		if err != nil {
			tmp.Close()
			return fmt.Errorf("vcache: %w", err)
		}
		w.Write(b)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("vcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	// An open append handle still points at the replaced inode; writes
	// there would be lost. Re-point it at the compacted file.
	if c.f != nil {
		c.f.Close()
		return c.openHandleLocked()
	}
	return nil
}

// Lookup probes the cache for key under the given per-query deadline
// budget (0 = unlimited). A cached timeout tried under a smaller budget
// than the one now requested is reported Stale so the caller re-solves
// with the longer deadline; every other present entry is a Hit.
// Equivalent to LookupBudget with an unlimited propagation budget.
func (c *Cache) Lookup(key string, timeout time.Duration) (Entry, LookupStatus) {
	return c.LookupBudget(key, timeout, 0)
}

// LookupBudget is Lookup with propagation-budget staleness: budget is
// the most generous SAT propagation budget the caller is prepared to
// spend on the unit this run (the last rung of its timeout-escalation
// ladder; 0 = unlimited). A cached timeout whose final attempt ran under
// a smaller budget than that is reported Stale so the caller re-solves
// at the longer ladder.
func (c *Cache) LookupBudget(key string, timeout time.Duration, budget int64) (Entry, LookupStatus) {
	c.mu.Lock()
	e, ok := c.mem[key]
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return Entry{}, Miss
	}
	if e.Outcome == "timeout" {
		if e.TriedTimeoutNS != 0 && (timeout == 0 || timeout.Nanoseconds() > e.TriedTimeoutNS) {
			c.stale.Add(1)
			return e, Stale
		}
		if e.TriedBudget != 0 && (budget == 0 || budget > e.TriedBudget) {
			c.stale.Add(1)
			return e, Stale
		}
	}
	c.hits.Add(1)
	c.savedNS.Add(e.ElapsedNS)
	return e, Hit
}

// NoteDecodeFailure records that a hit entry could not be replayed and
// the caller degraded to a re-solve (surfaced in Stats.DecodeFailures).
func (c *Cache) NoteDecodeFailure() { c.decodeFailures.Add(1) }

// Put records an entry in memory and writes it through to the disk
// store. Each entry is one line written with a single write call on the
// persistent append handle; a reader never observes a half-line except
// at the file tail, which load tolerates, and a completed Put survives
// even an immediate process kill. Put fails once the store is Closed.
func (c *Cache) Put(e Entry) error {
	if !e.valid() {
		return fmt.Errorf("vcache: invalid entry (key %q, outcome %q)", e.Key, e.Outcome)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("vcache: store is closed")
	}
	c.mem[e.Key] = e
	if c.f == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	// Chaos failpoints on the append seam: error/delay/kill-kind faults act
	// before the write (a kill here models death between appends — every
	// completed Put stays durable); corrupt-kind faults mangle the line
	// into the torn or scrambled write that load must tolerate.
	if err := faultinject.Hit("vcache.append"); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	line := faultinject.Bytes("vcache.append", append(b, '\n'))
	if _, err := c.f.Write(line); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	return nil
}

// Flush forces the JSONL tier to stable storage. Entries are written
// through on every Put, so this reduces to fsyncing the append handle;
// memory-only (and already-closed) stores trivially succeed.
func (c *Cache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	if err := faultinject.Hit("vcache.flush"); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	return nil
}

// Close flushes the JSONL tier to stable storage and releases the append
// handle, returning the flush error instead of dropping it. After Close,
// Put fails and lookups keep serving the in-memory tier. Closing twice
// is a no-op.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.f == nil {
		return nil
	}
	// Same seam as Flush: Close is the flush-at-exit path.
	if err := faultinject.Hit("vcache.flush"); err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	if err != nil {
		return fmt.Errorf("vcache: %w", err)
	}
	return nil
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Entries returns a copy of every cached entry, sorted by key.
func (c *Cache) Entries() []Entry {
	c.mu.Lock()
	out := make([]Entry, 0, len(c.mem))
	for _, e := range c.mem {
		out = append(out, e)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Path returns the backing file path ("" for memory-only caches).
func (c *Cache) Path() string { return c.path }

// Stats returns the probe counters accumulated since Open.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Stale:          c.stale.Load(),
		DecodeFailures: c.decodeFailures.Load(),
		SavedNS:        c.savedNS.Load(),
	}
}
