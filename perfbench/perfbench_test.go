package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"crocus/internal/obs"
	"crocus/internal/vcache"
)

// TestMain lets the test binary serve as the calibration helper, as the
// benchmark's own binary does.
func TestMain(m *testing.M) {
	if os.Getenv(calibratorEnv) != "" {
		serveCalibration()
		return
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark must honour: the workloads and the metric names and units.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmallest runs every workload at its smallest size, untraced
// and traced, and checks the printed result against BENCHMARK.json.
func TestWorkloadsSmallest(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			want := spec.EndToEnd
			if traced {
				name, want = wl.Name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: wl.Name, seed: 7, seconds: time.Second, trace: traced,
					out: t.TempDir(), minRequests: 40, setupReps: 1}
				rep, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rep.write(&buf); err != nil {
					t.Fatal(err)
				}
				out := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(out[len(out)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, buf.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, buf.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: printed %+v (present %t), want unit %s", m.Name, got, ok, m.Unit)
					}
				}
				if !traced {
					if !strings.Contains(buf.String(), "\nfail_frac ") || !strings.Contains(buf.String(), " 0 frac ") {
						t.Errorf("fail_frac 0 not reported:\n%s", buf.String())
					}
					return
				}
				data, err := os.ReadFile(filepath.Join(cfg.out, wl.Name+"-seed7.trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				required := []string{"bench.parse", "bench.measure", obs.PhaseMonomorphize}
				if wl.Name == "sweep-cold" {
					required = append(required, obs.PhaseBlast, obs.PhaseSolve)
				}
				if wl.Name == "serve-mixed" {
					required = append(required, "bench.roundtrip", obs.PhaseServeRequest, obs.PhaseUnit)
				}
				if _, err := obs.ValidateChromeTrace(data, required); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestTracingKeepsVerdicts checks that a traced sweep gives verdicts
// byte-identical to an untraced one.
func TestTracingKeepsVerdicts(t *testing.T) {
	ts := shippedTargets()
	if err := loadTargets(nil, ts); err != nil {
		t.Fatal(err)
	}
	fresh := func(*target) *vcache.Cache { return vcache.NewMemory() }
	plain, err := sweep(context.Background(), ts, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := sweep(obs.WithTracer(context.Background(), obs.New()), ts, fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.verdicts != traced.verdicts {
		t.Errorf("tracing changed verdicts:\nuntraced:\n%s\ntraced:\n%s", plain.verdicts, traced.verdicts)
	}
	if plain.wrong != 0 || !traced.traced || traced.clauses == 0 {
		t.Errorf("wrong=%d traced=%t clauses=%d", plain.wrong, traced.traced, traced.clauses)
	}
}

// TestSelfTime checks the per-lane nesting behind self times: children
// are subtracted from their innermost enclosing span on the same lane,
// and a span that overlaps without nesting is nobody's child.
func TestSelfTime(t *testing.T) {
	ev := func(name string, start, dur int, attrs ...obs.Attr) obs.Event {
		return obs.Event{Name: name, Start: time.Duration(start), Dur: time.Duration(dur), Attrs: attrs}
	}
	v := &traceView{spans: map[string]*spanStat{}}
	v.addLane([]obs.Event{
		ev("rule", 0, 100),
		ev(obs.PhaseAttempt, 10, 50, obs.Str("outcome", "timeout")),
		ev(obs.PhaseSolve, 20, 30),
		ev(obs.PhaseAttempt, 70, 20, obs.Str("outcome", "success")),
		ev(obs.PhaseSolve, 75, 10),
		ev("overlap", 95, 50),
	})
	for name, want := range map[string]time.Duration{"rule": 30, obs.PhaseAttempt: 30, obs.PhaseSolve: 40, "overlap": 50} {
		if got := v.span(name).self; got != want {
			t.Errorf("self(%s) = %d, want %d", name, got, want)
		}
	}
	if v.tailSolve != 30 || v.allSolve != 40 {
		t.Errorf("tail solve %d of %d, want 30 of 40", v.tailSolve, v.allSolve)
	}
}

// TestCalibratorSpeed checks the direction of the scaling: a host that
// runs the reference workload slower than its calibRef has speed below 1.
func TestCalibratorSpeed(t *testing.T) {
	ref := calibRef[1]
	c := &calibrator{threads: 1, samples: []time.Duration{ref, 2 * ref, 2 * ref}}
	for from, want := range map[int]float64{0: 0.6, 1: 0.5, 3: 1} {
		if got := c.speed(from); got != want {
			t.Errorf("speed(%d) = %g, want %g", from, got, want)
		}
	}
	if got := (*calibrator)(nil).speed(0); got != 1 {
		t.Errorf("nil calibrator speed = %g, want 1", got)
	}
}
