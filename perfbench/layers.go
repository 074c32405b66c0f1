package main

import (
	"fmt"
	"strings"
	"time"

	"crocus/internal/obs"
)

// spanStat sums the spans of one name: their full durations, and their
// self time (duration minus the child spans on the same thread lane).
type spanStat struct {
	n           int
	total, self time.Duration
}

// traceView is the traced phase read back from the tracer: span sums
// inside the bench.measure window, counter deltas over it, and the
// set-up parse spans.
type traceView struct {
	spans    map[string]*spanStat
	counters map[string]int64
	// tailSolve is the sat.solve time inside unit attempts that timed
	// out; allSolve is all sat.solve time.
	tailSolve, allSolve time.Duration
	parse               time.Duration // every bench.parse span of the run
}

func (v *traceView) span(name string) *spanStat {
	if s, ok := v.spans[name]; ok {
		return s
	}
	return &spanStat{}
}

// analyze reads the tracer after the traced phase. obs.Event carries a
// thread lane but no parent, so nesting is recovered per lane: a span is
// the child of the innermost open span on its lane that contains it.
func analyze(tr *obs.Tracer, countersBefore map[string]int64) *traceView {
	v := &traceView{spans: map[string]*spanStat{}, counters: map[string]int64{}}
	for name, c := range tr.Registry().Counters() {
		v.counters[name] = c - countersBefore[name]
	}
	evs := tr.Events()
	var from, to time.Duration
	for _, ev := range evs {
		switch ev.Name {
		case "bench.measure":
			from, to = ev.Start, ev.Start+ev.Dur
		case "bench.parse":
			v.parse += ev.Dur
		}
	}
	lanes := map[int64][]obs.Event{}
	for _, ev := range evs {
		if ev.Start >= from && ev.Start+ev.Dur <= to {
			lanes[ev.TID] = append(lanes[ev.TID], ev)
		}
	}
	for _, lane := range lanes {
		v.addLane(lane)
	}
	return v
}

type frame struct {
	ev       *obs.Event
	children time.Duration
}

// addLane folds one lane's spans, sorted by start with enclosing spans
// first, into the view.
func (v *traceView) addLane(lane []obs.Event) {
	var stack []*frame
	pop := func() {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		s := v.spans[f.ev.Name]
		if s == nil {
			s = &spanStat{}
			v.spans[f.ev.Name] = s
		}
		s.n++
		s.total += f.ev.Dur
		s.self += f.ev.Dur - f.children
	}
	for i := range lane {
		ev := &lane[i]
		for len(stack) > 0 && end(stack[len(stack)-1].ev) <= ev.Start {
			pop()
		}
		// Concurrent requests share the daemon's request lane, so a span
		// may overlap the open one without nesting; it is nobody's child.
		if n := len(stack); n > 0 && end(ev) <= end(stack[n-1].ev) {
			stack[n-1].children += ev.Dur
		}
		if ev.Name == obs.PhaseSolve {
			v.allSolve += ev.Dur
			if timedOutAttempt(stack) {
				v.tailSolve += ev.Dur
			}
		}
		stack = append(stack, &frame{ev: ev})
	}
	for len(stack) > 0 {
		pop()
	}
}

func end(ev *obs.Event) time.Duration { return ev.Start + ev.Dur }

// timedOutAttempt reports whether the innermost unit attempt on the
// stack ended in a timeout.
func timedOutAttempt(stack []*frame) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ev := stack[i].ev
		if ev.Name != obs.PhaseAttempt && ev.Name != obs.PhaseEscalation {
			continue
		}
		for _, a := range ev.Attrs {
			if a.Key == "outcome" {
				return a.Str == "timeout"
			}
		}
		return false
	}
	return false
}

// perLayer lists the per-layer metrics in report order, with the layer
// each belongs to.
var perLayer = []struct{ layer, name, unit string }{
	{"isle", "isle.parse_ms", "ms"},
	{"isle", "serve.parse_ms", "ms/op"},
	{"core front end", "core.monomorphize_ms", "ms/op"},
	{"core front end", "core.elaborate_ms", "ms/op"},
	{"core front end", "core.cache_probe_ms", "ms/op"},
	{"core queries", "core.query_applicability_ms", "ms/op"},
	{"core queries", "core.query_equivalence_ms", "ms/op"},
	{"core queries", "core.query_distinctness_ms", "ms/op"},
	{"core queries", "core.escalations", "count/op"},
	{"smt", "smt.solveeqs_ms", "ms/op"},
	{"smt", "smt.simplify_ms", "ms/op"},
	{"smt", "smt.units_ms", "ms/op"},
	{"smt", "smt.blast_ms", "ms/op"},
	{"smt", "smt.blast_vars", "count/op"},
	{"smt", "smt.blast_clauses", "count/op"},
	{"smt", "smt.structhash_merged", "count/op"},
	{"smt", "smt.simplify_shrink_frac", "frac"},
	{"smt", "smt.preblast_decided_frac", "frac"},
	{"smt", "smt.session_reuse_frac", "frac"},
	{"sat", "sat.solve_ms", "ms/op"},
	{"sat", "sat.propagations", "count/op"},
	{"sat", "sat.conflicts", "count/op"},
	{"sat", "sat.decisions", "count/op"},
	{"sat", "sat.restarts", "count/op"},
	{"sat", "sat.elim_vars", "count/op"},
	{"sat", "sat.subsumed", "count/op"},
	{"sat", "sat.vivified", "count/op"},
	{"sat", "sat.props_per_ms", "1/ms"},
	{"sat", "sat.tail_ms_frac", "frac"},
	{"vcache", "vcache.hits", "count/op"},
	{"vcache", "vcache.misses", "count/op"},
	{"vcache", "vcache.stale", "count/op"},
	{"vcache", "vcache.hit_frac", "frac"},
	{"sched", "sched.units", "count/op"},
	{"sched", "sched.steals", "count/op"},
	{"sched", "sched.unit_ms", "ms/op"},
	{"serve", "serve.queue_ms", "ms/op"},
	{"serve", "serve.verify_ms", "ms/op"},
	{"serve", "serve.request_self_ms", "ms/op"},
	{"serve", "serve.coalesce_wait", "count/op"},
	{"serve", "serve.coalesce_leader", "count/op"},
	{"serve", "serve.rejected", "count/op"},
	{"http", "http.roundtrip_ms", "ms/op"},
	{"http", "http.overhead_ms", "ms/op"},
	{"runtime", "runtime.gc_cpu_frac", "frac"},
	{"runtime", "runtime.gc_cycles", "count/op"},
	{"runtime", "runtime.heap_objects", "count"},
	{"trace", "trace.overhead_frac", "frac"},
}

// layerMetrics derives the per-layer metrics. Span and counter figures
// come from the traced phase; the runtime figures come from the untraced
// phase, which the tracer's own allocations do not disturb. isle.parse_ms
// is per set-up, since parsing happens only there.
func layerMetrics(v *traceView, plain, traced *phase, setups int) []metric {
	ops := float64(traced.ops)
	c := func(name string) float64 { return float64(v.counters[name]) }
	perOp := func(name string) float64 { return ratio(c(name), ops) }
	self := func(name string) float64 { return ratio(ms(v.span(name).self), ops) }
	total := func(name string) float64 { return ratio(ms(v.span(name).total), ops) }
	var rejected float64
	for name, n := range v.counters {
		if strings.HasPrefix(name, "serve.rejected.") {
			rejected += float64(n)
		}
	}
	probes := c("vcache.hit") + c("vcache.miss") + c("vcache.stale")
	values := map[string]float64{
		"isle.parse_ms":               ratio(ms(v.parse), float64(setups)),
		"serve.parse_ms":              total(obs.PhaseServeParse),
		"core.monomorphize_ms":        self(obs.PhaseMonomorphize),
		"core.elaborate_ms":           self(obs.PhaseElaborate),
		"core.cache_probe_ms":         self(obs.PhaseCacheProbe),
		"core.query_applicability_ms": self(obs.PhaseQueryApp),
		"core.query_equivalence_ms":   self(obs.PhaseQueryEquiv),
		"core.query_distinctness_ms":  self(obs.PhaseQueryDist),
		"core.escalations":            perOp("escalation.attempts"),
		"smt.solveeqs_ms":             self(obs.PhaseSolveEqs),
		"smt.simplify_ms":             self(obs.PhaseSimplify),
		"smt.units_ms":                self(obs.PhaseUnits),
		"smt.blast_ms":                self(obs.PhaseBlast),
		"smt.blast_vars":              perOp("blast.vars"),
		"smt.blast_clauses":           perOp("blast.clauses"),
		"smt.structhash_merged":       perOp("structhash.merged"),
		"smt.simplify_shrink_frac":    ratio(c("simplify.terms_out"), c("simplify.terms_in")),
		"smt.preblast_decided_frac":   ratio(c("session.decided_preblast"), c("session.queries")),
		"smt.session_reuse_frac":      ratio(c("session.reused_queries"), c("session.queries")),
		"sat.solve_ms":                self(obs.PhaseSolve),
		"sat.propagations":            perOp("sat.propagations"),
		"sat.conflicts":               perOp("sat.conflicts"),
		"sat.decisions":               perOp("sat.decisions"),
		"sat.restarts":                perOp("sat.restarts"),
		"sat.elim_vars":               perOp("sat.elim_vars"),
		"sat.subsumed":                perOp("sat.subsumed"),
		"sat.vivified":                perOp("sat.vivified"),
		"sat.props_per_ms":            ratio(c("sat.propagations"), ms(v.allSolve)),
		"sat.tail_ms_frac":            ratio(float64(v.tailSolve), float64(v.allSolve)),
		"vcache.hits":                 perOp("vcache.hit"),
		"vcache.misses":               perOp("vcache.miss"),
		"vcache.stale":                perOp("vcache.stale"),
		"vcache.hit_frac":             ratio(c("vcache.hit"), probes),
		"sched.units":                 perOp("sched.units"),
		"sched.steals":                perOp("sched.steals"),
		"sched.unit_ms":               self(obs.PhaseUnit),
		"serve.queue_ms":              total(obs.PhaseServeQueue),
		"serve.verify_ms":             total(obs.PhaseServeVerify),
		// The request span minus its queue, parse and verify children:
		// JSON and handler cost. Concurrent requests share one lane, so the
		// children are subtracted in aggregate rather than per span.
		"serve.request_self_ms": total(obs.PhaseServeRequest) - total(obs.PhaseServeQueue) -
			total(obs.PhaseServeParse) - total(obs.PhaseServeVerify),
		"serve.coalesce_wait":   perOp("serve.coalesce.wait"),
		"serve.coalesce_leader": perOp("serve.coalesce.leader"),
		"serve.rejected":        ratio(rejected, ops),
		"http.roundtrip_ms":     total("bench.roundtrip"),
		"http.overhead_ms":      total("bench.roundtrip") - total(obs.PhaseServeRequest),
		"runtime.gc_cpu_frac":   ratio(plain.rt.gcCPU, plain.rt.usedCPU),
		"runtime.gc_cycles":     ratio(plain.rt.gcCycles, float64(plain.ops)),
		"runtime.heap_objects":  plain.rt.heapObjects,
		"trace.overhead_frac":   1 - ratio(median(traced.rates), median(plain.rates)),
	}
	out := make([]metric, len(perLayer))
	for i, l := range perLayer {
		out[i] = metric{name: l.name, value: values[l.name], unit: l.unit, n: traced.ops, of: l.layer}
	}
	return out
}

// layerTable renders the per-layer metrics, one row each, grouped by layer.
func layerTable(ms []metric) []string {
	lines := []string{fmt.Sprintf("%-16s %-30s %16s  %s", "layer", "metric", "value", "unit")}
	for _, m := range ms {
		lines = append(lines, fmt.Sprintf("%-16s %-30s %16.6g  %s", m.of, m.name, m.value, m.unit))
	}
	return lines
}
