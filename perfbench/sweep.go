package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/vcache"
)

// target is one shipped program a sweep verifies, with the answers its
// verdicts are checked against.
type target struct {
	name     string
	load     func() (*isle.Program, error)
	distinct bool
	// expect holds the outcome that demonstrates each bug rule; every
	// other rule must never be a failure or an error.
	expect map[string]core.Outcome
	prog   *isle.Program
}

// shippedTargets lists every shipped corpus: aarch64 (Table 1), x64,
// midend, and the bug reproductions.
func shippedTargets() []*target {
	ts := []*target{
		{name: "aarch64", load: corpus.LoadAarch64},
		{name: "x64", load: corpus.LoadX64},
		{name: "midend", load: corpus.LoadMidend},
	}
	for _, b := range corpus.Bugs() {
		b := b
		ts = append(ts, &target{
			name:     "bug:" + b.ID,
			load:     func() (*isle.Program, error) { return corpus.LoadBug(b) },
			distinct: b.DistinctModels,
			expect:   b.Expect,
		})
	}
	return ts
}

// loadTargets parses and typechecks every target, each under a
// bench.parse span.
func loadTargets(tr *obs.Tracer, ts []*target) error {
	for _, t := range ts {
		sp := tr.StartSpan("bench.parse", obs.Str("corpus", t.name))
		p, err := t.load()
		sp.End()
		if err != nil {
			return fmt.Errorf("loading %s: %w", t.name, err)
		}
		t.prog = p
	}
	return nil
}

// wrongVerdict reports whether a rule's verdict contradicts its known
// answer. A timeout is undecided, never wrong.
func (t *target) wrongVerdict(rule string, got core.Outcome) bool {
	if got == core.OutcomeTimeout {
		return false
	}
	if want, ok := t.expect[rule]; ok {
		return got != want
	}
	return got == core.OutcomeFailure || got == core.OutcomeError
}

func sweepOptions(t *target, cache *vcache.Cache) core.Options {
	return core.Options{
		Timeout:           wallBackstop,
		PropagationBudget: propagationBudget,
		Parallelism:       1,
		DistinctModels:    t.distinct,
		Custom:            corpus.CustomVCs(),
		Cache:             cache,
	}
}

// pass is the tally of one sweep over every target.
type pass struct {
	wall, cpu    time.Duration // in the verifier: elapsed, and process CPU time (user and system)
	speed        float64       // host speed over the pass, from the calibrator
	units        int
	wrong        int
	uncached     int // units that reached the solver instead of the cache
	outcomes     [core.OutcomeError + 1]int
	propagations int64
	clauses      int64 // blast clauses added, counted only when traced
	traced       bool
	lat          []time.Duration
	verdicts     string // one line per unit: target, rule, signature, outcome
	wrongRules   []string
}

func (p *pass) decided() int { return p.units - p.outcomes[core.OutcomeTimeout] }

// shape is everything about a pass that must repeat exactly at
// -parallel 1: the verdicts, the outcome counts and the SAT work.
func (p *pass) shape() string {
	return fmt.Sprintf("units=%d outcomes=%v propagations=%d verdicts=%x",
		p.units, p.outcomes, p.propagations, sha256.Sum256([]byte(p.verdicts)))
}

// sweep runs one p1 VerifyAllContext per target. cacheFor supplies the
// vcache each target's verifier uses. Between targets it lets cal sample
// the host's speed, outside the pass's wall and CPU time.
func sweep(ctx context.Context, ts []*target, cacheFor func(*target) *vcache.Cache, cal *calibrator) (*pass, error) {
	p := &pass{}
	var vb strings.Builder
	clauses := obs.FromContext(ctx).Registry().Counter("blast.clauses")
	p.traced = clauses != nil
	clausesBefore := clauses.Value()
	from := cal.latest()
	for _, t := range ts {
		cal.maybe()
		cpuBefore := processCPU()
		start := time.Now()
		results, err := core.New(t.prog, sweepOptions(t, cacheFor(t))).VerifyAllContext(ctx)
		p.wall += time.Since(start)
		p.cpu += processCPU() - cpuBefore
		if err != nil {
			return nil, fmt.Errorf("sweeping %s: %w", t.name, err)
		}
		for _, rr := range results {
			wrong := t.wrongVerdict(rr.Rule.Name, rr.Outcome())
			if wrong {
				p.wrongRules = append(p.wrongRules, fmt.Sprintf("%s/%s=%s", t.name, rr.Rule.Name, rr.Outcome()))
			}
			for i := range rr.Insts {
				io := &rr.Insts[i]
				p.units++
				if wrong || io.Outcome == core.OutcomeError {
					p.wrong++
				}
				if io.Assignments > 0 && !io.Cached {
					p.uncached++
				}
				p.outcomes[io.Outcome]++
				p.propagations += io.Stats.Propagations
				p.lat = append(p.lat, io.Duration)
				fmt.Fprintf(&vb, "%s %s %s %s\n", t.name, rr.Rule.Name, io.Sig, io.Outcome)
			}
		}
	}
	p.speed = cal.speed(from)
	p.clauses = clauses.Value() - clausesBefore
	p.verdicts = vb.String()
	return p, nil
}

// cacheFor is the vcache a pass verifies a target with: replay-warm's
// filled cache, or an empty one for each target of a sweep-cold pass.
func (w *sweepWorkload) cacheFor(*target) *vcache.Cache {
	if w.warm {
		return w.cache
	}
	return vcache.NewMemory()
}

// sweepWorkload is sweep-cold (every pass from empty caches) or
// replay-warm (every pass against one cache filled during set-up).
type sweepWorkload struct {
	warm    bool
	targets []*target
	cache   *vcache.Cache // replay-warm's filled cache
	// shape is the run's first pass or fill; every later one must match.
	shape string
	// clauses holds the blast-clause total of the first traced fill and
	// the first traced timed pass.
	clauses map[string]int64
}

func (w *sweepWorkload) setupReps() int {
	if w.warm {
		// Each set-up includes a full cold fill of about six seconds.
		return 3
	}
	// A set-up only parses, in about 20 ms, so many repetitions are cheap
	// and steady the median.
	return 25
}

func (w *sweepWorkload) setup(ctx context.Context, tr *obs.Tracer, cal *calibrator) error {
	w.targets = shippedTargets()
	if err := loadTargets(tr, w.targets); err != nil {
		return err
	}
	if !w.warm {
		return nil
	}
	w.cache = vcache.NewMemory()
	sp := tr.StartSpan("bench.fill")
	p, err := sweep(obs.WithTracer(ctx, tr), w.targets, w.cacheFor, cal)
	sp.End()
	if err != nil {
		return err
	}
	return w.check(p, "fill")
}

// check applies the known-answer check and the determinism guard to a
// pass: every pass and fill of a run must repeat the first one's
// verdicts, outcome counts and propagations, and every traced pass of a
// kind ("fill" or "pass") the first one's blast clauses.
func (w *sweepWorkload) check(p *pass, kind string) error {
	if p.wrong > 0 {
		return fmt.Errorf("%w: wrong verdicts: %s", errIncorrect, strings.Join(p.wrongRules, ", "))
	}
	if s := p.shape(); w.shape == "" {
		w.shape = s
	} else if s != w.shape {
		return fmt.Errorf("%w: determinism guard: %s %s differs from the first pass %s", errIncorrect, kind, s, w.shape)
	}
	if !p.traced {
		return nil
	}
	if w.clauses == nil {
		w.clauses = map[string]int64{}
	}
	if first, ok := w.clauses[kind]; !ok {
		w.clauses[kind] = p.clauses
	} else if p.clauses != first {
		return fmt.Errorf("%w: determinism guard: %s blasted %d clauses, the first %s %d", errIncorrect, kind, p.clauses, kind, first)
	}
	return nil
}

func (w *sweepWorkload) measure(ctx context.Context, tr *obs.Tracer, cal *calibrator, seconds time.Duration, _ int) (*phase, error) {
	ph := &phase{speed: 1}
	ctx = obs.WithTracer(ctx, tr)
	runtime.GC()
	from := cal.begin()
	before := readRuntime()
	start := time.Now()
	for {
		sp := tr.StartSpan("bench.pass")
		p, err := sweep(ctx, w.targets, w.cacheFor, cal)
		sp.End()
		if err != nil {
			return nil, err
		}
		ph.add(p)
		if w.warm && p.uncached > 0 {
			return ph, fmt.Errorf("%w: replay solved %d units instead of replaying them", errIncorrect, p.uncached)
		}
		if err := w.check(p, "pass"); err != nil {
			return ph, err
		}
		// Stop before a pass that would overrun the measuring time.
		if time.Since(start)+p.wall > seconds {
			break
		}
	}
	ph.rt = readRuntime().sub(before)
	ph.speed = cal.end(from)
	return ph, nil
}

func (ph *phase) add(p *pass) {
	ph.ops += p.units
	ph.failed += p.wrong
	ph.units += p.units
	ph.decided += p.decided()
	ph.wall += p.wall
	ph.rawRates = append(ph.rawRates, float64(p.units)/p.wall.Seconds())
	ph.rates = append(ph.rates, float64(p.units)/p.wall.Seconds()/p.speed)
	for _, d := range p.lat {
		ph.lat = append(ph.lat, time.Duration(float64(d)*p.speed))
	}
	ph.passes = append(ph.passes, p)
}

func (w *sweepWorkload) close() error { return nil }
