// Package faultinject is the deterministic fault-injection registry the
// chaos-testing layer arms against the verification stack's hot seams.
//
// A failpoint is a named site in production code — vcache.append,
// smt.solve, serve.handler — that consults the registry on every pass.
// Disarmed (the default, and the only state real deployments run in) a
// site costs one atomic load and branch: no map lookup, no allocation,
// benchmarked at low single-digit nanoseconds so the calls can live in
// hot paths unconditionally, exactly like the obs no-op path.
//
// Armed via the -faults flag or the CROCUS_FAULTS environment variable,
// a site triggers one of five fault kinds:
//
//	error    Hit returns ErrInjected (wrapped with the site name)
//	panic    Hit panics with an injected-fault message
//	delay    Hit sleeps for the site's configured duration
//	corrupt  Bytes mangles the payload (truncated + bit-flipped), the
//	         shape of a torn write
//	kill     Hit delivers SIGKILL to the process — the unflushable,
//	         undeferrable death that crash-resume testing needs
//
// Determinism contract: whether hit number n at a site triggers is a
// pure function of (seed, site name, n, probability) — a splitmix-style
// hash of the three compared against the probability threshold. Two runs
// that issue the same sequence of hits at a site therefore inject the
// same faults at the same points; sweeping the seed explores different
// fault schedules. Under concurrency the assignment of hit numbers to
// goroutines depends on scheduling, but the *set* of triggering hit
// numbers does not, which is what replayable chaos runs need.
//
// The contract every armed site must preserve (enforced by
// internal/chaos and the chaos-smoke CI job): an injected fault may
// surface as an explicit OutcomeError, a retried unit, a shed request,
// or a dead process — never as a silently wrong verdict.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Kind is the fault a site injects when it triggers.
type Kind int

// Fault kinds, in spec-string order.
const (
	KindError Kind = iota + 1
	KindPanic
	KindDelay
	KindCorrupt
	KindKill
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	case KindKill:
		return "kill"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var kindNames = map[string]Kind{
	"error": KindError, "panic": KindPanic, "delay": KindDelay,
	"corrupt": KindCorrupt, "kill": KindKill,
}

// ErrInjected is the sentinel every error-kind fault wraps; callers and
// tests distinguish injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// EnvVar is the environment variable ArmFromEnv reads; setting it arms
// the registry in any crocus process, including test binaries — the CI
// chaos-smoke job's lever.
const EnvVar = "CROCUS_FAULTS"

// site is one armed failpoint.
type site struct {
	name      string
	kind      Kind
	threshold uint64        // trigger when mix(seed, name, n) < threshold
	delay     time.Duration // KindDelay sleep
	hits      atomic.Uint64 // hit counter; pre-increment value is the hit number
	triggered atomic.Uint64
}

var (
	// armed is the fast-path gate: a single atomic load decides the
	// disabled path, so Hit/Bytes stay in hot loops for free.
	armed atomic.Bool

	mu    sync.RWMutex
	sites map[string]*site
	seed  uint64
	spec  string
)

// Enabled reports whether any site is armed.
func Enabled() bool { return armed.Load() }

// Spec returns the spec string the registry is currently armed with
// ("" when disarmed) — surfaced by statusz for operator visibility.
func Spec() string {
	mu.RLock()
	defer mu.RUnlock()
	return spec
}

// Arm parses and installs a fault spec, replacing any previous arming.
// The spec is a comma-separated list of entries:
//
//	site=kind:prob          e.g. smt.solve=error:0.05
//	site=delay:prob:dur     e.g. sat.solve=delay:0.1:2ms
//	seed=N                  the run's deterministic seed (default 1)
//
// prob is a probability in [0,1]; kind is one of error, panic, delay,
// corrupt, kill. An empty spec disarms (same as Reset).
func Arm(s string) error {
	s = strings.TrimSpace(s)
	if s == "" {
		Reset()
		return nil
	}
	newSites := map[string]*site{}
	var newSeed uint64 = 1
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, val, ok := strings.Cut(entry, "=")
		if !ok {
			return fmt.Errorf("faultinject: bad entry %q (want site=kind:prob)", entry)
		}
		name = strings.TrimSpace(name)
		if name == "seed" {
			n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return fmt.Errorf("faultinject: bad seed %q", val)
			}
			newSeed = n
			continue
		}
		parts := strings.Split(val, ":")
		if len(parts) < 2 {
			return fmt.Errorf("faultinject: bad entry %q (want site=kind:prob)", entry)
		}
		kind, ok := kindNames[strings.TrimSpace(parts[0])]
		if !ok {
			return fmt.Errorf("faultinject: unknown kind %q in %q", parts[0], entry)
		}
		prob, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil || prob < 0 || prob > 1 {
			return fmt.Errorf("faultinject: bad probability %q in %q (want [0,1])", parts[1], entry)
		}
		st := &site{name: name, kind: kind, threshold: probThreshold(prob)}
		if kind == KindDelay {
			st.delay = time.Millisecond
			if len(parts) >= 3 {
				d, err := time.ParseDuration(strings.TrimSpace(parts[2]))
				if err != nil || d < 0 {
					return fmt.Errorf("faultinject: bad delay %q in %q", parts[2], entry)
				}
				st.delay = d
			}
		} else if len(parts) > 2 {
			return fmt.Errorf("faultinject: unexpected argument in %q", entry)
		}
		newSites[name] = st
	}
	mu.Lock()
	sites, seed, spec = newSites, newSeed, s
	mu.Unlock()
	armed.Store(len(newSites) > 0)
	return nil
}

// ArmFromEnv arms the registry from CROCUS_FAULTS when set. It is called
// from every CLI main; tests arm explicitly with Arm.
func ArmFromEnv() error {
	if v := os.Getenv(EnvVar); v != "" {
		return Arm(v)
	}
	return nil
}

// Reset disarms every site and clears the counters (tests).
func Reset() {
	armed.Store(false)
	mu.Lock()
	sites, seed, spec = nil, 0, ""
	mu.Unlock()
}

// probThreshold maps a probability to the uint64 comparison threshold.
func probThreshold(p float64) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(1<<63) * 2)
}

// mix is a splitmix64-style finalizer over (seed, site, hit number):
// the deterministic trigger decision.
func mix(seed uint64, name string, n uint64) uint64 {
	h := seed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	z := h + (n+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// lookup finds the armed site (nil when this name is not armed).
func lookup(name string) (*site, uint64) {
	mu.RLock()
	st := sites[name]
	sd := seed
	mu.RUnlock()
	return st, sd
}

// Hit is the failpoint call production code places at a fault site. On
// the disarmed path it is a single atomic load. Armed, it counts the hit
// and — when the deterministic trigger fires — injects the site's fault:
// returns a wrapped ErrInjected, panics, sleeps, or SIGKILLs the
// process. Corrupt-kind sites do not act here (only through Bytes), so a
// seam can safely call both.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	return hitSlow(name)
}

func hitSlow(name string) error {
	st, sd := lookup(name)
	if st == nil || st.kind == KindCorrupt {
		return nil
	}
	n := st.hits.Add(1) - 1
	if mix(sd, name, n) >= st.threshold {
		return nil
	}
	st.triggered.Add(1)
	switch st.kind {
	case KindError:
		return fmt.Errorf("%s: %w (hit %d)", name, ErrInjected, n)
	case KindPanic:
		panic(fmt.Sprintf("%s: injected panic (hit %d)", name, n))
	case KindDelay:
		time.Sleep(st.delay)
	case KindKill:
		// The real thing: no flushes, no deferred handlers, no recover.
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		os.Exit(137) // unreachable unless the signal is lost; never proceed
	}
	return nil
}

// Bytes is the failpoint for byte-stream seams (the cache's appends):
// armed with a corrupt-kind fault that triggers, it returns a mangled
// copy of b — truncated mid-record with a flipped byte, the shape of a
// torn or scrambled write. Otherwise b is returned unchanged
// (never copied), so the disarmed path stays allocation-free.
func Bytes(name string, b []byte) []byte {
	if !armed.Load() {
		return b
	}
	st, sd := lookup(name)
	if st == nil || st.kind != KindCorrupt || len(b) == 0 {
		return b
	}
	n := st.hits.Add(1) - 1
	if mix(sd, name, n) >= st.threshold {
		return b
	}
	st.triggered.Add(1)
	// Deterministic mangling derived from the same hash: cut the record
	// somewhere in its second half (a torn tail keeps a valid prefix of
	// the stream) and flip a byte so even a line-aligned cut is garbled.
	h := mix(sd^0x5ca1ab1e, name, n)
	cut := len(b)/2 + int(h%uint64(len(b)/2+1))
	if cut >= len(b) {
		cut = len(b) - 1
	}
	out := make([]byte, cut)
	copy(out, b[:cut])
	if cut > 0 {
		out[int(h>>32)%cut] ^= 0x20
	}
	return out
}

// SiteStats is one armed site's observed activity.
type SiteStats struct {
	Kind      string `json:"kind"`
	Hits      uint64 `json:"hits"`
	Triggered uint64 `json:"triggered"`
}

// Snapshot returns per-site hit/trigger counts for every armed site
// (nil when disarmed) — the statusz.faults section and the CLIs' chaos
// summary line read it.
func Snapshot() map[string]SiteStats {
	mu.RLock()
	defer mu.RUnlock()
	if len(sites) == 0 {
		return nil
	}
	out := make(map[string]SiteStats, len(sites))
	for name, st := range sites {
		out[name] = SiteStats{
			Kind:      st.kind.String(),
			Hits:      st.hits.Load(),
			Triggered: st.triggered.Load(),
		}
	}
	return out
}

// Summary renders the snapshot as one line ("" when disarmed), for the
// CLIs to print after a fault-armed run.
func Summary() string {
	snap := Snapshot()
	if snap == nil {
		return ""
	}
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("faults:")
	for _, n := range names {
		s := snap[n]
		fmt.Fprintf(&sb, " %s=%s(%d/%d)", n, s.Kind, s.Triggered, s.Hits)
	}
	return sb.String()
}
