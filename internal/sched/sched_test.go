package sched

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crocus/internal/obs"
)

// Every submitted task runs exactly once, whatever the worker count.
func TestRunBatchRunsEveryTaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		p := NewPool(workers, nil)
		const n = 500
		var runs [n]atomic.Int64
		tasks := make([]Task, n)
		for i := range tasks {
			i := i
			tasks[i] = func(int) { runs[i].Add(1) }
		}
		p.RunBatch(tasks)
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
		s := p.Stats()
		if s.Executed != n {
			t.Fatalf("workers=%d: executed %d, want %d", workers, s.Executed, n)
		}
		if s.QueueDepth != 0 {
			t.Fatalf("workers=%d: queue depth %d after batch", workers, s.QueueDepth)
		}
		p.Close()
	}
}

// A skewed batch — one long task at the front, the rest short — must
// not stall behind it: while the blocker holds one worker, the others
// take every short task from the queue.
func TestStealingRebalancesSkew(t *testing.T) {
	p := NewPool(4, nil)
	defer p.Close()
	const n = 64
	block := make(chan struct{})
	var short atomic.Int64
	tasks := make([]Task, n)
	tasks[0] = func(int) { <-block }
	for i := 1; i < n; i++ {
		tasks[i] = func(int) { short.Add(1) }
	}
	done := make(chan struct{})
	go func() { p.RunBatch(tasks); close(done) }()

	// All short tasks must finish while the blocker still runs.
	deadline := time.After(10 * time.Second)
	for short.Load() != n-1 {
		select {
		case <-deadline:
			t.Fatalf("short tasks stalled at %d/%d: %+v", short.Load(), n-1, p.Stats())
		case <-time.After(time.Millisecond):
		}
	}
	close(block)
	<-done
}

// Units start in submission order at every worker count: with every
// task blocking until released and one running task released at a
// time, the set of started tasks is always a prefix of the batch.
func TestStartsFollowSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers, nil)
		const n = 16
		started := make(chan int, n)
		release := make(chan struct{})
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = func(int) { started <- i; <-release }
		}
		done := make(chan struct{})
		go func() { p.RunBatch(tasks); close(done) }()

		var seen [n]bool
		count := 0
		// await receives k starts, then checks that the tasks started so
		// far are exactly the first count of the batch.
		await := func(k int) {
			for ; k > 0; k-- {
				select {
				case i := <-started:
					seen[i] = true
					count++
				case <-time.After(10 * time.Second):
					t.Fatalf("workers=%d: stalled after %d starts", workers, count)
				}
			}
			for i := 0; i < count; i++ {
				if !seen[i] {
					t.Fatalf("workers=%d: %d tasks started but task %d did not: %v",
						workers, count, i, seen)
				}
			}
		}
		// The first min(workers, n) tasks start concurrently; after that,
		// each release frees one worker, which starts exactly one more.
		await(min(workers, n))
		for released := 0; released < n; released++ {
			select {
			case release <- struct{}{}:
			case <-time.After(10 * time.Second):
				t.Fatalf("workers=%d: no running task after %d releases", workers, released)
			}
			if count < n {
				await(1)
			}
		}
		<-done
		p.Close()
	}
}

// Per-worker counts sum to the total, and units land on more than one
// worker when there is enough work to go around.
func TestPerWorkerCounts(t *testing.T) {
	p := NewPool(4, nil)
	defer p.Close()
	const n = 400
	tasks := make([]Task, n)
	var seen [4]atomic.Int64
	for i := range tasks {
		tasks[i] = func(w int) {
			seen[w].Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}
	p.RunBatch(tasks)
	s := p.Stats()
	var sum int64
	busy := 0
	for w, c := range s.PerWorker {
		sum += c
		if c > 0 {
			busy++
		}
		if c != seen[w].Load() {
			t.Fatalf("worker %d: stats %d, observed %d", w, c, seen[w].Load())
		}
	}
	if sum != n || s.Executed != n {
		t.Fatalf("per-worker sum %d, executed %d, want %d", sum, s.Executed, n)
	}
	if busy < 2 {
		t.Fatalf("only %d workers executed units", busy)
	}
}

// A closed pool still completes batches — inline on the caller — so a
// drain race can slow work down but never lose it.
func TestClosedPoolRunsInline(t *testing.T) {
	p := NewPool(2, nil)
	p.Close()
	var ran atomic.Int64
	var worker atomic.Int64
	p.RunBatch([]Task{
		func(w int) { ran.Add(1); worker.Store(int64(w)) },
		func(w int) { ran.Add(1) },
	})
	if ran.Load() != 2 {
		t.Fatalf("closed pool ran %d/2 tasks", ran.Load())
	}
	if worker.Load() != 0 {
		t.Fatalf("inline fallback used worker index %d, want 0", worker.Load())
	}
	if s := p.Stats(); s.Inline != 2 || s.Executed != 2 {
		t.Fatalf("inline stats wrong: %+v", s)
	}
}

// Concurrent RunBatch callers share the pool without losing or
// duplicating tasks (the daemon's usage pattern).
func TestConcurrentBatches(t *testing.T) {
	p := NewPool(3, nil)
	defer p.Close()
	const callers, per = 8, 50
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]Task, per)
			var mine atomic.Int64
			for i := range tasks {
				tasks[i] = func(int) { mine.Add(1); total.Add(1) }
			}
			p.RunBatch(tasks)
			if mine.Load() != per {
				t.Errorf("batch completed with %d/%d tasks", mine.Load(), per)
			}
		}()
	}
	wg.Wait()
	if total.Load() != callers*per {
		t.Fatalf("ran %d tasks, want %d", total.Load(), callers*per)
	}
}

// A panicking task must not kill its worker or hang the batch; the
// pool's backstop contains it and later tasks still run.
func TestPanicBackstop(t *testing.T) {
	p := NewPool(2, nil)
	defer p.Close()
	var after atomic.Int64
	tasks := []Task{
		func(int) { panic("task bug") },
		func(int) { after.Add(1) },
		func(int) { after.Add(1) },
	}
	done := make(chan struct{})
	go func() { p.RunBatch(tasks); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunBatch hung after task panic")
	}
	if after.Load() != 2 {
		t.Fatalf("tasks after panic ran %d/2 times", after.Load())
	}
	if s := p.Stats(); s.Panics != 1 {
		t.Fatalf("panics counter %d, want 1", s.Panics)
	}

	// The workers survived: a follow-up batch completes normally.
	var again atomic.Int64
	p.RunBatch([]Task{func(int) { again.Add(1) }, func(int) { again.Add(1) }})
	if again.Load() != 2 {
		t.Fatalf("post-panic batch ran %d/2 tasks", again.Load())
	}
}

// The obs counters mirror the atomic stats.
func TestObsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(3, reg)
	defer p.Close()
	const n = 120
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = func(int) {}
	}
	p.RunBatch(tasks)
	s := p.Stats()
	c := reg.Counters()
	if c["sched.units"] != s.Executed || s.Executed != n {
		t.Fatalf("sched.units=%d, stats executed=%d, want %d", c["sched.units"], s.Executed, n)
	}
}

// Close waits for in-flight work and is idempotent.
func TestCloseIdempotent(t *testing.T) {
	p := NewPool(2, nil)
	var ran atomic.Int64
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = func(int) { time.Sleep(time.Millisecond); ran.Add(1) }
	}
	done := make(chan struct{})
	go func() { p.RunBatch(tasks); close(done) }()
	time.Sleep(2 * time.Millisecond)
	p.Close()
	p.Close()
	<-done
	if ran.Load() != 20 {
		t.Fatalf("close lost work: %d/20 tasks ran", ran.Load())
	}
}
