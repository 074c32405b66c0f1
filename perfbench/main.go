// Command perfbench is the crocus-go benchmark. It runs one of three
// seeded workloads, checks every verdict against a known answer, and
// prints the end-to-end metrics, with times and rates scaled to a
// reference host speed (see calib.go), or with --trace 1 the per-layer
// breakdown read from the program's obs tracer.
//
//	sweep-cold   every shipped corpus, each pass a -parallel 1 sweep from
//	             empty in-memory caches: SAT and bit-blasting dominate
//	replay-warm  the same sweeps replayed against a cache filled during
//	             set-up: the core front end, vcache reads and the GC
//	             dominate, and the solver does nothing
//	serve-mixed  a fresh in-process daemon on a loopback listener, driven
//	             by two closed-loop clients with a seeded request mix
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong verdict, or a sweep
// whose work differs from the run's first pass, sets correct to false and
// makes the command exit 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"crocus/internal/obs"
)

const (
	// propagationBudget is the deterministic per-unit SAT limit: at
	// -parallel 1 it decides every timeout, so verdicts and solver work
	// repeat exactly from run to run.
	propagationBudget = 400_000
	// wallBackstop is the per-unit wall-clock limit, loose enough that the
	// propagation budget always decides first.
	wallBackstop = time.Minute
)

// errIncorrect marks a run whose outputs are wrong: a verdict that
// contradicts its known answer, or a sweep whose work changed.
var errIncorrect = errors.New("incorrect output")

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for the traced run's Chrome trace and layer table
	// minRequests is the fewest requests a serve-mixed run sends, so that
	// ten samples lie beyond the p99.
	minRequests int
	// setupReps overrides the workload's number of set-ups when positive.
	setupReps int
}

// workload is one benchmark workload. setup runs several times and the
// last one is measured; measure runs until its time is up, with tracing
// when tr is not nil. Both sample the host's speed through cal between
// slices of their work, and leave the sampling out of the times they
// measure.
type workload interface {
	setupReps() int
	setup(ctx context.Context, tr *obs.Tracer, cal *calibrator) error
	measure(ctx context.Context, tr *obs.Tracer, cal *calibrator, seconds time.Duration, minRequests int) (*phase, error)
	close() error // tears down the last set-up
}

// phase is the tally of one timed phase.
type phase struct {
	ops, failed    int
	units, decided int           // verification units in the verdicts, and those not timed out
	wall           time.Duration // measured time, without calibration
	// rates are operations per second, one per sweep pass or one for a
	// serve phase, and lat the time of each operation, both at the
	// reference host speed; rawRates are the rates as measured.
	rates, rawRates []float64
	lat             []time.Duration
	speed           float64 // mean host speed over the phase, from the calibrator
	rt              runtimeSample
	passes          []*pass // the sweeps' passes
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "sweep-cold":
		return &sweepWorkload{}, nil
	case "replay-warm":
		return &sweepWorkload{warm: true}, nil
	case "serve-mixed":
		return &serveWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-cold, replay-warm or serve-mixed)", name)
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value
	of    string // what a sample is
}

type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric // the ones the JSON line carries
	lines             []string // human-readable report, printed before the JSON
}

func main() {
	if os.Getenv(calibratorEnv) != "" {
		serveCalibration()
		return
	}
	var cfg config
	var traceFlag int
	var seconds float64
	flag.StringVar(&cfg.workload, "workload", "", "sweep-cold, replay-warm or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for the traced run's Chrome trace and layer table")
	flag.Parse()
	cfg.minRequests = 1000
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.trace = traceFlag != 0

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

// run executes one workload run. Outputs that fail the known-answer check
// or the determinism guard give a report with correct set to false; any
// other failure is an error.
func run(ctx context.Context, cfg config) (*report, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	parallel := 1
	if cfg.workload == "serve-mixed" {
		parallel = serveInflight
	}
	rep := &report{correct: true, lines: []string{
		fmt.Sprintf("perfbench: workload=%s seed=%d seconds=%g trace=%t", cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace),
		environment(cfg, parallel),
	}}
	fail := func(err error) (*report, error) {
		if !errors.Is(err, errIncorrect) {
			return nil, err
		}
		rep.correct = false
		rep.lines = append(rep.lines, "INCORRECT: "+err.Error())
		return rep, nil
	}

	// Untraced runs report their wall-clock figures at the reference host
	// speed (see calib.go); traced runs report raw per-layer figures.
	var tr *obs.Tracer
	var cal *calibrator
	if cfg.trace {
		tr = obs.New()
	} else {
		if cal, err = startCalibrator(parallel); err != nil {
			return nil, err
		}
		defer cal.close()
	}
	reps := w.setupReps()
	if cfg.setupReps > 0 {
		reps = cfg.setupReps
	}
	var setups, rawSetups []float64
	cal.sample()
	for i := 0; i < reps; i++ {
		if i > 0 {
			// Tear the previous set-up down outside the timing.
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		// A set-up's window opens at the previous one's closing sample.
		from := cal.latest()
		spent := cal.spentSampling()
		start := time.Now()
		if err := w.setup(ctx, tr, cal); err != nil {
			return fail(err)
		}
		raw := (time.Since(start) - (cal.spentSampling() - spent)).Seconds()
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*cal.end(from))
	}
	rep.lines = append(rep.lines, fmt.Sprintf("setup s: min=%.4g median=%.4g max=%.4g of %d (raw median %.4g)",
		quantile(setups, 0), median(setups), quantile(setups, 1), len(setups), median(rawSetups)))

	if !cfg.trace {
		ph, err := w.measure(ctx, nil, cal, cfg.seconds, cfg.minRequests)
		if ph != nil {
			rep.addPhase(ph)
			rep.metrics = endToEnd(ph, setups)
			rep.lines = append(rep.lines, latencyLine(ph),
				fmt.Sprintf("raw: ops_per_s=%.6g at mean host speed %.4f", median(ph.rawRates), ph.speed), cal.summary())
			rep.addMetricLines(rep.metrics)
			rep.addMetricLines([]metric{{name: "fail_frac", value: ratio(float64(ph.failed), float64(ph.ops)), unit: "frac", n: ph.ops, of: "operations"}})
		}
		if err != nil {
			return fail(err)
		}
		if cal != nil && cal.err != nil {
			return nil, cal.err
		}
		return rep, nil
	}

	// Traced run: half the time untraced, for the overhead baseline and
	// the runtime counters, then half with the tracer on.
	half := cfg.seconds / 2
	plain, err := w.measure(ctx, nil, nil, half, cfg.minRequests)
	if plain != nil {
		rep.addPhase(plain)
	}
	if err != nil {
		return fail(err)
	}
	countersBefore := tr.Registry().Counters()
	sp := tr.StartSpan("bench.measure")
	traced, err := w.measure(ctx, tr, nil, half, cfg.minRequests)
	sp.End()
	if traced != nil {
		rep.addPhase(traced)
	}
	if err != nil {
		return fail(err)
	}
	view := analyze(tr, countersBefore)
	rep.metrics = layerMetrics(view, plain, traced, len(setups))
	table := layerTable(rep.metrics)
	rep.lines = append(rep.lines, table...)
	// The table file opens with the run and environment record.
	file := append([]string{rep.lines[0], rep.lines[1]}, table...)
	if err := writeTraceFiles(tr, cfg, file, &rep.lines); err != nil {
		return nil, err
	}
	return rep, nil
}

func (r *report) addPhase(ph *phase) {
	r.attempted += ph.ops
	r.failed += ph.failed
	for i, p := range ph.passes {
		r.lines = append(r.lines, fmt.Sprintf("pass %d: %d units in %.3f s (%.3f s CPU), %s", i+1, p.units, p.wall.Seconds(), p.cpu.Seconds(), p.shape()))
	}
	if ph.failed > 0 {
		r.correct = false
	}
}

func (r *report) addMetricLines(ms []metric) {
	for _, m := range ms {
		r.lines = append(r.lines, fmt.Sprintf("%-24s %14.6g %-8s n=%d %s", m.name, m.value, m.unit, m.n, m.of))
	}
}

// endToEnd derives the metrics a user of the system sees from an
// untraced phase. Times and rates are at the reference host speed.
func endToEnd(ph *phase, setups []float64) []metric {
	lat := ph.latMS()
	return []metric{
		{"setup_s", median(setups), "s", len(setups), "set-ups (median)"},
		{"ops_per_s", median(ph.rates), "1/s", len(ph.rates), "passes or runs (median)"},
		{"lat_p50_ms", quantile(lat, 0.50), "ms", len(lat), "operations"},
		{"lat_p99_ms", quantile(lat, 0.99), "ms", len(lat), "operations"},
		{"decided_frac", ratio(float64(ph.decided), float64(ph.units)), "frac", ph.units, "verification units"},
		{"peak_rss_mb", peakRSSMB(), "MB", 1, "process (VmHWM)"},
		{"alloc_mb_per_op", ratio(ph.rt.allocBytes/1e6, float64(ph.ops)), "MB", ph.ops, "operations"},
	}
}

func (ph *phase) latMS() []float64 {
	lat := make([]float64, len(ph.lat))
	for i, d := range ph.lat {
		lat[i] = ms(d)
	}
	return lat
}

// latencyLine renders the latency distribution around the reported
// percentiles.
func latencyLine(ph *phase) string {
	lat := ph.latMS()
	var b strings.Builder
	b.WriteString("latency ms:")
	for _, q := range []float64{0.5, 0.9, 0.98, 0.99, 0.995, 0.999, 1} {
		fmt.Fprintf(&b, " p%g=%.4g", 100*q, quantile(lat, q))
	}
	return b.String()
}

// writeTraceFiles writes the traced run's Chrome trace and layer table,
// and checks the trace the way internal/obs/tracecheck does.
func writeTraceFiles(tr *obs.Tracer, cfg config, table []string, lines *[]string) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := tr.ExportChromeFile(base + ".trace.json"); err != nil {
		return err
	}
	data, err := os.ReadFile(base + ".trace.json")
	if err != nil {
		return err
	}
	st, err := obs.ValidateChromeTrace(data, nil)
	if err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if err := os.WriteFile(base+".layers.txt", []byte(strings.Join(table, "\n")+"\n"), 0o644); err != nil {
		return err
	}
	*lines = append(*lines, fmt.Sprintf("trace: %s (%d spans in %d phases), layer table %s.layers.txt", base+".trace.json", st.Spans, len(st.Phases), base))
	return nil
}

func (r *report) write(w io.Writer) error {
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
