// Package sched is the verification engine's unit scheduler: a fixed
// set of workers taking tasks from one FIFO queue.
//
// The unit of scheduling is a verification unit — one (rule, type
// instantiation) solve attempt — rather than a whole rule. Rule-level
// partitioning lets one timeout-tail rule serialize a sweep while other
// workers idle (the paper's §4.1 mul/div/popcnt tail); unit granularity
// keeps every worker busy until the global tail, because an idle worker
// takes the next unit whichever rule it belongs to.
//
// Design:
//
//   - One queue, in submission order: units start in the order they
//     were submitted at every worker count, and a batch queues whole
//     behind the batches submitted before it.
//   - Tasks cost milliseconds to seconds (SMT solves); mutex operations
//     cost nanoseconds. One pool-wide mutex and condition variable
//     therefore cost nothing measurable and make the submit/take/close
//     races trivially airtight.
//   - An idle worker parks on the condition variable; a submission
//     broadcasts, so a new batch wakes parked workers at once.
//   - RunBatch on a closed pool degrades to inline execution on the
//     caller (worker index 0), so shutdown races lose work never.
//
// The pool is deliberately ignorant of what a task is: core builds
// closures that carry rule/sig/result-slot context and assembles results
// in source order itself, so scheduling order never leaks into output
// order.
package sched

import (
	"sync"
	"sync/atomic"

	"crocus/internal/faultinject"
	"crocus/internal/obs"
)

// Task is one unit of work. The worker index (0-based, stable for the
// pool's lifetime) lets tasks use per-worker resources — session pools,
// trace lanes — without locking: a worker executes its tasks serially.
type Task func(worker int)

// Pool is a FIFO worker pool. All methods are safe for concurrent use;
// a Pool is shared between concurrent RunBatch callers (the daemon
// schedules every request's units onto one pool).
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []Task // submitted tasks not yet started, oldest first
	closed  bool
	wg      sync.WaitGroup
	workers int

	// Stats (atomics: read without the pool lock).
	executed []atomic.Int64
	inline   atomic.Int64 // tasks run inline after close
	panics   atomic.Int64 // panics swallowed by the execute backstop

	// Optional metrics registry; nil-safe (obs no-op handles).
	cUnits *obs.Counter
}

// NewPool starts a pool of n workers (n < 1 is raised to 1). The
// registry, when non-nil, receives the sched.units counter; per-worker
// unit counts are in Stats.
func NewPool(n int, reg *obs.Registry) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		workers:  n,
		executed: make([]atomic.Int64, n),
		cUnits:   reg.Counter("sched.units"),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		go p.run(w)
	}
	return p
}

// Stats is a point-in-time reading of the pool's counters.
type Stats struct {
	Workers    int     `json:"workers"`
	QueueDepth int64   `json:"queue_depth"`
	Executed   int64   `json:"units"`
	PerWorker  []int64 `json:"units_per_worker"`
	Inline     int64   `json:"inline_units,omitempty"`
	Panics     int64   `json:"contained_panics,omitempty"`
}

// Stats reads the pool's counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:    p.workers,
		QueueDepth: p.QueueDepth(),
		Inline:     p.inline.Load(),
		Panics:     p.panics.Load(),
		PerWorker:  make([]int64, p.workers),
	}
	for w := range s.PerWorker {
		n := p.executed[w].Load()
		s.PerWorker[w] = n
		s.Executed += n
	}
	s.Executed += s.Inline
	return s
}

// QueueDepth returns how many submitted tasks have not yet started.
func (p *Pool) QueueDepth() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(len(p.queue))
}

// RunBatch schedules the tasks and blocks until all of them have
// finished. The tasks join the back of the queue in slice order, so
// they start in that order. On a closed pool the batch runs inline on
// the calling goroutine (worker index 0) instead of being dropped.
//
// A task that panics is contained by the pool (counted in
// Stats.Panics); the batch still completes. Callers that need fault
// diagnostics should recover inside the task itself — core does.
func (p *Pool) RunBatch(tasks []Task) {
	if len(tasks) == 0 {
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	wrapped := make([]Task, len(tasks))
	for i, t := range tasks {
		wrapped[i] = func(w int) {
			defer wg.Done()
			// Chaos failpoint per scheduled unit. Placed after the Done defer
			// so an injected panic unwinds through it (the batch still
			// completes) and is recovered by the pool's protect backstop; the
			// unit's result slot stays empty and core degrades it to
			// OutcomeError.
			if err := faultinject.Hit("sched.run"); err != nil {
				panic(err)
			}
			t(w)
		}
	}
	if !p.submit(wrapped) {
		for _, t := range wrapped {
			p.inline.Add(1)
			p.cUnits.Inc()
			p.protect(0, t)
		}
		return
	}
	wg.Wait()
}

// submit enqueues pre-wrapped tasks, returning false when the pool is
// closed (the caller then runs them inline).
func (p *Pool) submit(tasks []Task) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, tasks...)
	p.cond.Broadcast()
	return true
}

// Close stops the workers after the queue drains and waits for them to
// exit. Concurrent and subsequent RunBatch calls fall back to inline
// execution; closing twice is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// run is one worker's loop: take the front task, parking while the
// queue is empty; exit once the pool is closed and the queue drained.
func (p *Pool) run(w int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		t := p.queue[0]
		p.queue[0] = nil // the backing array must not keep a finished task alive
		p.queue = p.queue[1:]
		p.mu.Unlock()
		p.execute(w, t)
	}
}

// execute runs one task on worker w, counting it.
func (p *Pool) execute(w int, t Task) {
	p.executed[w].Add(1)
	p.cUnits.Inc()
	p.protect(w, t)
}

// protect runs one task with a panic backstop. Tasks carry their own
// containment (core converts panics into OutcomeError diagnostics); the
// backstop only guarantees a buggy task cannot kill its worker goroutine
// or hang RunBatch — the wrapped waitgroup Done runs during unwind.
func (p *Pool) protect(w int, t Task) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
		}
	}()
	t(w)
}
