package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecording(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	ctx = WithScope(ctx, "my_rule")

	sp := Start(ctx, PhaseSolve, Int("vars", 12))
	sp.SetAttr(Str("status", "unsat"))
	time.Sleep(time.Millisecond)
	sp.End()

	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != PhaseSolve || ev.Scope != "my_rule" {
		t.Errorf("event = %+v, want name=%s scope=my_rule", ev, PhaseSolve)
	}
	if ev.Dur <= 0 {
		t.Errorf("duration %v, want > 0", ev.Dur)
	}
	if len(ev.Attrs) != 2 || ev.Attrs[0].Int != 12 || ev.Attrs[1].Str != "unsat" {
		t.Errorf("attrs = %+v", ev.Attrs)
	}
}

func TestNilSafety(t *testing.T) {
	// Every call chain used by the pipeline must be a no-op without a
	// tracer — on a nil context, a plain context, and a nil tracer.
	for _, ctx := range []context.Context{nil, context.Background(), WithTracer(context.Background(), nil)} {
		sc := Get(ctx)
		if sc != nil {
			t.Fatalf("Get(%v) = %v, want nil", ctx, sc)
		}
		sp := Start(ctx, PhaseSolve, Int("x", 1))
		sp.SetAttr(Str("s", "v"))
		sp.End()
		sc.Registry().Counter("c").Inc()
		sc.Registry().Histogram("h").Observe(3)
		if got := WithScope(ctx, "s"); ctx != nil && got != ctx {
			t.Error("WithScope without tracer should return ctx unchanged")
		}
		if got := WithThread(ctx, "w"); ctx != nil && got != ctx {
			t.Error("WithThread without tracer should return ctx unchanged")
		}
	}
	var tr *Tracer
	tr.StartSpan("x").End()
	if tr.Events() != nil || tr.Registry() != nil || tr.Dropped() != 0 {
		t.Error("nil tracer accessors should return zero values")
	}
	if err := tr.ExportChromeFile("/nonexistent/x"); err == nil {
		t.Error("nil tracer export should error")
	}
}

func TestConcurrentSpansAndThreads(t *testing.T) {
	tr := New()
	root := WithTracer(context.Background(), tr)
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithThread(root, fmt.Sprintf("worker-%d", w))
			for i := 0; i < perWorker; i++ {
				sp := Start(ctx, PhaseSolve, Int("i", int64(i)))
				Get(ctx).Registry().Counter("spans").Inc()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	evs := tr.Events()
	if len(evs) != workers*perWorker {
		t.Fatalf("got %d events, want %d", len(evs), workers*perWorker)
	}
	tids := map[int64]bool{}
	for _, ev := range evs {
		tids[ev.TID] = true
	}
	if len(tids) != workers {
		t.Errorf("got %d distinct tids, want %d", len(tids), workers)
	}
	if got := tr.Registry().Counter("spans").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestChromeTraceExportValidates(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)
	tr.StartSpan(PhaseParse).End()
	wctx := WithThread(WithScope(ctx, "rule_a"), "worker-1")
	sp := Start(wctx, PhaseUnit)
	Start(wctx, PhaseSolve, Str("status", "unsat")).End()
	sp.End()

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.ExportChromeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ValidateChromeTrace(data, []string{PhaseParse, PhaseUnit, PhaseSolve})
	if err != nil {
		t.Fatalf("ValidateChromeTrace: %v", err)
	}
	if st.Spans != 3 {
		t.Errorf("spans = %d, want 3", st.Spans)
	}
	// The thread-name metadata must cover the allocated worker lane.
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	foundWorker := false
	for _, ev := range trace.TraceEvents {
		if ev["ph"] == "M" {
			if args, ok := ev["args"].(map[string]any); ok && args["name"] == "worker-1" {
				foundWorker = true
			}
		}
	}
	if !foundWorker {
		t.Error("no thread_name metadata for worker-1")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"malformed", `{"traceEvents": [`},
		{"missing-name", `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":0,"dur":1}]}`},
		{"negative-ts", `{"traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":-5,"dur":1}]}`},
		{"non-monotonic", `{"traceEvents":[
			{"name":"a","ph":"X","pid":1,"tid":0,"ts":10,"dur":1},
			{"name":"b","ph":"X","pid":1,"tid":0,"ts":5,"dur":1}]}`},
		{"empty", `{"traceEvents":[]}`},
	}
	for _, c := range cases {
		if _, err := ValidateChromeTrace([]byte(c.data), nil); err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
	// A required phase that never appears must fail.
	ok := `{"traceEvents":[{"name":"parse","ph":"X","pid":1,"tid":0,"ts":0,"dur":1}]}`
	if _, err := ValidateChromeTrace([]byte(ok), []string{"parse", "sat.solve"}); err == nil {
		t.Error("missing required phase passed validation")
	}
	if _, err := ValidateChromeTrace([]byte(ok), []string{"parse"}); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestJSONLExport(t *testing.T) {
	tr := New()
	sp := tr.StartSpan(PhaseParse, Int("files", 3))
	sp.End()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.ExportJSONLFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var ev struct {
		Name  string         `json:"name"`
		DurNS int64          `json:"dur_ns"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Name != PhaseParse || ev.Args["files"] != float64(3) {
		t.Errorf("event = %+v", ev)
	}
}

func TestExportFailureReturnsError(t *testing.T) {
	tr := New()
	tr.StartSpan("x").End()
	err := tr.ExportChromeFile(filepath.Join(t.TempDir(), "no", "such", "dir", "t.json"))
	if err == nil {
		t.Fatal("export into a missing directory should error (callers degrade it to a warning)")
	}
}

func TestRegistryCountersAndHistograms(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	h := r.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 100, 1000, -7} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Errorf("count = %d, want 6", s.Count)
	}
	if s.Sum != 1106 { // negatives clamp to 0
		t.Errorf("sum = %d, want 1106", s.Sum)
	}
	if m := s.Mean(); m < 184 || m > 185 {
		t.Errorf("mean = %v", m)
	}
	if q := s.Quantile(0.5); q > 7 {
		t.Errorf("p50 = %d, want small", q)
	}
	if q := s.Quantile(0.99); q < 1000 {
		t.Errorf("p99 = %d, want >= 1000", q)
	}
	out := r.Render()
	if !strings.Contains(out, "a") || !strings.Contains(out, "lat") {
		t.Errorf("render missing metrics:\n%s", out)
	}
}

func TestPhaseBreakdown(t *testing.T) {
	tr := New()
	ctx := WithScope(WithTracer(context.Background(), tr), "rule_x")
	Start(ctx, PhaseSolve).End()
	Start(ctx, PhaseSolve).End()
	Start(ctx, PhaseBlast).End()
	tr.StartSpan(PhaseParse).End()

	pb := tr.PhaseBreakdown()
	if pb.Counts["rule_x"][PhaseSolve] != 2 {
		t.Errorf("counts = %+v", pb.Counts)
	}
	totals := pb.PhaseTotals()
	if _, ok := totals[PhaseParse]; !ok {
		t.Error("PhaseTotals missing parse")
	}
	table := pb.Render(10)
	if !strings.Contains(table, "rule_x") || !strings.Contains(table, "(parse)") {
		t.Errorf("table:\n%s", table)
	}
}

// TestPhaseTableRowTotal: a rule's row total is the sum of its
// sched.unit spans (each unit's wall time), a scope without unit spans
// falls back to the sum of its phase columns, and sched.unit itself is
// not a column.
func TestPhaseTableRowTotal(t *testing.T) {
	tr := New()
	for _, ev := range []Event{
		{Name: PhaseUnit, Scope: "rule_x", Dur: 3 * time.Millisecond},
		{Name: PhaseUnit, Scope: "rule_x", Dur: 4 * time.Millisecond},
		{Name: PhaseSolve, Scope: "rule_x", Dur: 5 * time.Millisecond},
		{Name: PhaseBlast, Scope: "rule_y", Dur: 2 * time.Millisecond},
		{Name: PhaseSolve, Scope: "rule_y", Dur: 1 * time.Millisecond},
	} {
		tr.record(ev)
	}
	lines := strings.Split(tr.PhaseBreakdown().Render(0), "\n")
	header := strings.Fields(lines[1])
	if want := []string{"rule", "total", "blast", "solve"}; !reflect.DeepEqual(header, want) {
		t.Errorf("header = %v, want %v", header, want)
	}
	totals := map[string]string{}
	for _, l := range lines[2:] {
		if f := strings.Fields(l); len(f) >= 2 {
			totals[f[0]] = f[1]
		}
	}
	if totals["rule_x"] != "7.00ms" || totals["rule_y"] != "3.00ms" {
		t.Errorf("row totals = %v, want rule_x 7.00ms (unit spans), rule_y 3.00ms (columns)", totals)
	}
}

func TestServeDebug(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(42)
	addr, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Skipf("cannot listen: %v", err)
	}
	if addr == "" {
		t.Fatal("empty bound address")
	}
	// Second call must not panic on the expvar double-publish.
	if _, err := ServeDebug("127.0.0.1:0", reg); err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
}

// BenchmarkDisabledSpan measures the no-tracer fast path the pipeline
// pays on every span site when observability is off: one context Value
// lookup plus nil-receiver calls.
func BenchmarkDisabledSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start(ctx, PhaseSolve)
		sp.End()
	}
}

// BenchmarkEnabledSpan is the traced-path cost for comparison.
func BenchmarkEnabledSpan(b *testing.B) {
	ctx := WithTracer(context.Background(), New())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := Start(ctx, PhaseSolve)
		sp.End()
	}
}

func TestWithNamedThreadReusesTID(t *testing.T) {
	tr := New()
	ctx := WithTracer(context.Background(), tr)

	record := func(ctx context.Context, name string) {
		Start(ctx, name).End()
	}
	record(WithNamedThread(ctx, "worker-1"), "a")
	record(WithNamedThread(ctx, "worker-2"), "b")
	record(WithNamedThread(ctx, "worker-1"), "c")

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	byName := map[string]Event{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	if byName["a"].TID != byName["c"].TID {
		t.Errorf("worker-1 spans on different tids: %d vs %d", byName["a"].TID, byName["c"].TID)
	}
	if byName["a"].TID == byName["b"].TID {
		t.Errorf("worker-1 and worker-2 share tid %d", byName["a"].TID)
	}
	names := tr.threadNames()
	if names[byName["a"].TID] != "worker-1" || names[byName["b"].TID] != "worker-2" {
		t.Errorf("thread names wrong: %v", names)
	}
	// WithNamedThread is nil-safe like the rest of the API.
	if got := WithNamedThread(context.Background(), "x"); got == nil {
		t.Error("nil context result")
	}
}
