// Package obs is the pipeline-wide tracing and metrics layer: a
// zero-dependency (stdlib-only), concurrency-safe substrate every
// performance-facing PR reports against.
//
// It has three pieces:
//
//   - Spans: a lightweight Tracer records named, attributed intervals
//     (phase start/end) keyed to logical threads. The tracer rides a
//     context.Context through the verification stack; a nil tracer (or a
//     context without one) makes every call a no-op, benchmarked to ~0
//     overhead so instrumentation can stay in hot paths unconditionally.
//   - Metrics: an atomic counter/histogram Registry (metrics.go) for
//     rates the span tree cannot express — simplify-rule hit counts,
//     clause/variable totals per blast, cache probe outcomes, SAT search
//     statistics.
//   - Exporters: Chrome trace-event JSON (loadable in Perfetto or
//     chrome://tracing), a JSONL event stream for diffing runs, and a
//     human per-rule phase-breakdown table (export.go, report.go).
//
// Observability must never change verification behavior: exporter
// failures degrade to warnings at the call site, and nothing in this
// package can alter a verdict.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span names for the verification pipeline phases. Shared constants so
// producers (core, smt, CLIs) and consumers (phase table, CI trace
// checker) agree on the taxonomy.
const (
	PhaseParse        = "parse"            // ISLE parse + typecheck
	PhaseMonomorphize = "monomorphize"     // type inference / assignments
	PhaseElaborate    = "elaborate"        // elaboration + VC construction
	PhaseCacheProbe   = "cache.probe"      // vcache fingerprint + lookup
	PhaseAttempt      = "solve.attempt"    // one unit solve at a budget
	PhaseEscalation   = "solve.escalation" // a retry rung of the ladder
	PhaseQueryApp     = "query.applicability"
	PhaseQueryDist    = "query.distinctness"
	PhaseQueryEquiv   = "query.equivalence"
	PhaseSolveEqs     = "smt.solveEqs" // equality solving (substitution)
	PhaseSimplify     = "smt.simplify" // word-level rewrite pass
	PhaseUnits        = "smt.units"    // flatten + contradiction check
	PhaseBlast        = "smt.blast"    // Tseitin bit-blasting
	PhaseSolve        = "sat.solve"    // one CDCL Solve call
	PhaseUnit         = "sched.unit"   // one scheduled verification unit

	// Request phases for the crocus-serve daemon (internal/serve).
	PhaseServeRequest = "serve.request" // one HTTP request, admission to response
	PhaseServeQueue   = "serve.queue"   // waiting for a worker-pool slot
	PhaseServeParse   = "serve.parse"   // request program parse/typecheck (or resident-corpus reuse)
	PhaseServeVerify  = "serve.verify"  // the verification call itself
)

// Attr is one span attribute. Attributes are integers or strings;
// keeping the variants explicit avoids interface boxing on hot paths.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Str: v, IsStr: true} }

// Event is one completed span, recorded for export.
type Event struct {
	Name  string
	Scope string // enclosing unit of work, typically the rule name
	TID   int64  // logical thread (worker) id
	Start time.Duration
	Dur   time.Duration
	Attrs []Attr
}

// maxEvents bounds the tracer's memory; a full-corpus sweep records on
// the order of 10^4 events, so the cap only engages on runaway loops.
// Overflow drops events (counted in Dropped) rather than failing.
// Long-running hosts use SetRing instead.
const maxEvents = 1 << 21

// Tracer records spans and owns the metrics registry of one run. All
// methods are safe for concurrent use, and all methods on a nil *Tracer
// are no-ops, so call sites never branch on whether tracing is enabled.
type Tracer struct {
	epoch time.Time
	reg   *Registry

	mu      sync.Mutex
	events  []Event
	threads map[int64]string
	nameTID map[string]int64

	// Flight-recorder ring: when ringCap > 0 completed spans land in a
	// fixed-size circular buffer instead of the unbounded events slice,
	// so a long-lived daemon always holds the most recent window of
	// activity (dumpable on SIGQUIT or panic) at constant memory.
	ring      []Event
	ringCap   int
	ringTotal int64

	nextTID atomic.Int64
	dropped atomic.Int64
}

// New creates an enabled tracer with a fresh metrics registry.
func New() *Tracer {
	return &Tracer{
		epoch:   time.Now(),
		reg:     NewRegistry(),
		threads: map[int64]string{0: "main"},
		nameTID: map[string]int64{},
	}
}

// SetRing switches the tracer into flight-recorder mode: completed
// spans are kept in a circular buffer of the n most recent instead of
// the append-only events slice, so a daemon traces forever at constant
// memory and can always dump the latest window. n <= 0 turns the ring
// off (back to the bounded events slice).
func (t *Tracer) SetRing(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if n <= 0 {
		t.ring, t.ringCap, t.ringTotal = nil, 0, 0
	} else {
		t.ring = make([]Event, n)
		t.ringCap = n
		t.ringTotal = 0
	}
	t.mu.Unlock()
}

// RingEnabled reports whether the tracer is in flight-recorder mode.
func (t *Tracer) RingEnabled() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ringCap > 0
}

// Registry returns the tracer's metrics registry (nil for a nil tracer).
func (t *Tracer) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Dropped reports how many spans were discarded after the event cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// newTID allocates a logical thread id and names it.
func (t *Tracer) newTID(name string) int64 {
	id := t.nextTID.Add(1)
	t.mu.Lock()
	t.threads[id] = name
	t.mu.Unlock()
	return id
}

// namedTID returns the stable thread id for name, allocating it on the
// first call. Scheduled verification units reattach to the executing
// worker's lane per unit; memoization keeps that one lane per worker
// instead of one per unit.
func (t *Tracer) namedTID(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.nameTID[name]; ok {
		return id
	}
	id := t.nextTID.Add(1)
	t.threads[id] = name
	if t.nameTID == nil {
		t.nameTID = map[string]int64{}
	}
	t.nameTID[name] = id
	return id
}

// record appends a completed span (to the ring when flight-recorder
// mode is on, else to the bounded events slice).
func (t *Tracer) record(ev Event) {
	t.mu.Lock()
	if t.ringCap > 0 {
		t.ring[t.ringTotal%int64(t.ringCap)] = ev
		t.ringTotal++
		t.mu.Unlock()
		return
	}
	if len(t.events) >= maxEvents {
		t.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a copy of the recorded spans sorted by start time. In
// flight-recorder mode this is the ring's current window, so the
// existing exporters (Chrome trace, JSONL, phase table) work unchanged
// against a daemon dump.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var out []Event
	if t.ringCap > 0 {
		n := t.ringTotal
		if n > int64(t.ringCap) {
			n = int64(t.ringCap)
		}
		out = make([]Event, 0, n)
		// Oldest-first: when the ring has wrapped, the oldest live entry
		// sits at the next write position.
		start := int64(0)
		if t.ringTotal > int64(t.ringCap) {
			start = t.ringTotal % int64(t.ringCap)
		}
		for i := int64(0); i < n; i++ {
			out = append(out, t.ring[(start+i)%int64(t.ringCap)])
		}
	} else {
		out = make([]Event, len(t.events))
		copy(out, t.events)
	}
	t.mu.Unlock()
	sortEvents(out)
	return out
}

// threadNames returns a copy of the tid -> name table.
func (t *Tracer) threadNames() map[int64]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]string, len(t.threads))
	for k, v := range t.threads {
		out[k] = v
	}
	return out
}

// Span is an in-flight interval. A nil *Span is a valid no-op, which is
// what every Start call returns when tracing is disabled.
type Span struct {
	tr    *Tracer
	name  string
	scope string
	tid   int64
	start time.Duration
	attrs []Attr
	fl    *Flight // request flight collecting this span, or nil
}

// StartSpan opens a span on the tracer's main thread (tid 0), outside
// any context — e.g. around corpus parsing before a context exists.
func (t *Tracer) StartSpan(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, name: name, start: time.Since(t.epoch), attrs: attrs}
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End closes the span and records it.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Since(s.tr.epoch)
	ev := Event{
		Name:  s.name,
		Scope: s.scope,
		TID:   s.tid,
		Start: s.start,
		Dur:   now - s.start,
		Attrs: s.attrs,
	}
	s.tr.record(ev)
	s.fl.add(ev)
}

// SpanContext is the per-goroutine tracing state carried in a
// context.Context: the tracer plus the logical thread and scope label
// spans started from it inherit. It is stored under a single context
// key so the disabled path costs one Value lookup.
type SpanContext struct {
	tr    *Tracer
	tid   int64
	scope string
	fl    *Flight // request flight, inherited by every derived context
}

type ctxKey struct{}

// WithTracer attaches a tracer to the context (thread 0, empty scope).
// A nil tracer returns ctx unchanged, keeping the disabled path free.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &SpanContext{tr: t})
}

// Get extracts the span context, tolerating nil contexts (solver
// configurations often carry none). Returns nil when tracing is off.
func Get(ctx context.Context) *SpanContext {
	if ctx == nil {
		return nil
	}
	sc, _ := ctx.Value(ctxKey{}).(*SpanContext)
	return sc
}

// FromContext returns the context's tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	if sc := Get(ctx); sc != nil {
		return sc.tr
	}
	return nil
}

// WithThread gives the context a fresh logical thread id (one per
// concurrent worker, so Chrome-trace lanes don't interleave). No-op
// without a tracer.
func WithThread(ctx context.Context, name string) context.Context {
	sc := Get(ctx)
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &SpanContext{
		tr: sc.tr, tid: sc.tr.newTID(name), scope: sc.scope, fl: sc.fl,
	})
}

// WithNamedThread is WithThread with a stable identity: every call with
// the same name on the same tracer lands on the same logical thread.
// The unit scheduler uses it so a unit's spans appear on the lane of
// the worker that actually executed it, not the goroutine that
// enqueued it. No-op without a tracer.
func WithNamedThread(ctx context.Context, name string) context.Context {
	sc := Get(ctx)
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &SpanContext{
		tr: sc.tr, tid: sc.tr.namedTID(name), scope: sc.scope, fl: sc.fl,
	})
}

// WithScope labels subsequent spans with a unit-of-work name (the rule
// being verified). No-op without a tracer.
func WithScope(ctx context.Context, scope string) context.Context {
	sc := Get(ctx)
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &SpanContext{
		tr: sc.tr, tid: sc.tid, scope: scope, fl: sc.fl,
	})
}

// WithFlight attaches a request flight to the tracing context: every
// span ended under the returned context is also collected into fl (in
// addition to the tracer's ring), so a promoted exemplar holds the
// request's full span tree. No-op without a tracer or with a nil
// flight.
func WithFlight(ctx context.Context, fl *Flight) context.Context {
	sc := Get(ctx)
	if sc == nil || fl == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, &SpanContext{
		tr: sc.tr, tid: sc.tid, scope: sc.scope, fl: fl,
	})
}

// WithFlightFrom copies src's flight (if any) onto dst's tracing
// context. The daemon's coalescing leader solves under the server's
// base context rather than the triggering request's, so the leader
// re-homes the request's flight here before verification starts.
func WithFlightFrom(dst, src context.Context) context.Context {
	fsc := Get(src)
	if fsc == nil || fsc.fl == nil {
		return dst
	}
	return WithFlight(dst, fsc.fl)
}

// FlightFromContext returns the flight riding ctx, or nil.
func FlightFromContext(ctx context.Context) *Flight {
	if sc := Get(ctx); sc != nil {
		return sc.fl
	}
	return nil
}

// Start opens a span from the context's tracing state; nil (a no-op
// span) when tracing is disabled.
func Start(ctx context.Context, name string, attrs ...Attr) *Span {
	return Get(ctx).Start(name, attrs...)
}

// Start opens a span on the span context's thread and scope. Nil-safe.
func (sc *SpanContext) Start(name string, attrs ...Attr) *Span {
	if sc == nil {
		return nil
	}
	return &Span{
		tr:    sc.tr,
		name:  name,
		scope: sc.scope,
		tid:   sc.tid,
		start: time.Since(sc.tr.epoch),
		attrs: attrs,
		fl:    sc.fl,
	}
}

// Registry returns the registry behind the span context. Nil-safe, so
// metric call sites chain sc.Registry().Counter(...).Add(...) without
// branching.
func (sc *SpanContext) Registry() *Registry {
	if sc == nil {
		return nil
	}
	return sc.tr.reg
}

// Tracer returns the span context's tracer. Nil-safe.
func (sc *SpanContext) Tracer() *Tracer {
	if sc == nil {
		return nil
	}
	return sc.tr
}
