package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Host-speed calibration. On a shared machine the host's speed drifts by
// a quarter or more over minutes, as neighbours contend for the caches
// and memory bandwidth, and run-to-run spreads of raw wall-clock figures
// swamp the changes a benchmark is meant to show. So between slices of
// measured work the benchmark times a fixed reference workload, and
// scales every wall-clock metric to the host speed at which the reference
// workload takes calibRef. A slowdown that hits the reference workload
// and the program alike cancels out; a change to the program does not
// touch the reference workload, so it shows in full. The reference
// workload runs on as many threads as the workload keeps busy, since a
// neighbour on either vCPU slows a two-worker daemon but not a
// single-threaded sweep. It runs in a helper process, so that its memory
// never counts toward the benchmark's peak RSS and its work never toward
// its CPU time.

const (
	// calibratorEnv, when set, turns the process into the helper.
	calibratorEnv = "PERFBENCH_CALIBRATOR"
	// calibEvery is the most measured work between two samples.
	calibEvery = time.Second
)

// calibRef is the reference workload's time on a quiet 2-vCPU Xeon VM
// with Go 1.24, by the number of threads it runs on, so that scaled
// figures are close to raw ones there.
var calibRef = [...]time.Duration{1: 65 * time.Millisecond, 2: 75 * time.Millisecond}

// calibrator samples the host's speed through the helper process. A nil
// calibrator samples nothing and reports speed 1, so that traced runs
// measure raw figures. The first error stops sampling and is kept
// in err.
type calibrator struct {
	cmd     *exec.Cmd
	threads int // goroutines the reference workload runs on
	in      io.WriteCloser
	out     *bufio.Reader
	samples []time.Duration
	spent   time.Duration // wall time spent sampling, left out of measured intervals
	last    time.Time     // end of the latest sample
	err     error
}

// startCalibrator starts the helper: this same executable with
// calibratorEnv set.
func startCalibrator(threads int) (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), calibratorEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the calibrator: %w", err)
	}
	return &calibrator{cmd: cmd, threads: threads, in: in, out: bufio.NewReader(out)}, nil
}

// sample times the reference workload once.
func (c *calibrator) sample() {
	if c == nil || c.err != nil {
		return
	}
	start := time.Now()
	line := ""
	_, err := fmt.Fprintln(c.in, c.threads)
	if err == nil {
		line, err = c.out.ReadString('\n')
	}
	var ns int64
	if err == nil {
		ns, err = strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	}
	if err != nil {
		c.err = fmt.Errorf("calibrator: %w", err)
		return
	}
	c.samples = append(c.samples, time.Duration(ns))
	c.last = time.Now()
	c.spent += c.last.Sub(start)
}

// maybe samples when calibEvery has passed since the latest sample.
func (c *calibrator) maybe() {
	if c != nil && time.Since(c.last) >= calibEvery {
		c.sample()
	}
}

// begin samples once and returns the window that speed averages over.
func (c *calibrator) begin() int {
	if c == nil {
		return 0
	}
	c.sample()
	return len(c.samples) - 1
}

// end samples once more and returns the host speed over the window opened
// by begin.
func (c *calibrator) end(from int) float64 {
	c.sample()
	return c.speed(from)
}

// latest opens a window at the latest sample, without sampling.
func (c *calibrator) latest() int {
	if c == nil {
		return 0
	}
	return len(c.samples) - 1
}

// speed is the host speed over the samples from index from on: calibRef
// over their mean, below 1 when the host runs slower than the reference,
// and 1 without samples.
func (c *calibrator) speed(from int) float64 {
	if c == nil || from < 0 || from >= len(c.samples) {
		return 1
	}
	var sum time.Duration
	for _, s := range c.samples[from:] {
		sum += s
	}
	return float64(calibRef[c.threads]) * float64(len(c.samples)-from) / float64(sum)
}

// spentSampling is the wall time spent sampling so far.
func (c *calibrator) spentSampling() time.Duration {
	if c == nil {
		return 0
	}
	return c.spent
}

// summary describes the samples of the whole run.
func (c *calibrator) summary() string {
	if c == nil {
		return "host speed: not calibrated (traced run), figures are raw"
	}
	xs := make([]float64, len(c.samples))
	for i, s := range c.samples {
		xs[i] = ms(s)
	}
	return fmt.Sprintf("calibration ms: min=%.4g median=%.4g max=%.4g of %d on %d threads (reference %g)",
		quantile(xs, 0), median(xs), quantile(xs, 1), len(xs), c.threads, ms(calibRef[c.threads]))
}

// close stops the helper and waits for it to end.
func (c *calibrator) close() error {
	if c == nil || c.cmd == nil {
		return nil
	}
	c.in.Close()
	err := c.cmd.Wait()
	c.cmd = nil
	return err
}

// serveCalibration is the helper's main loop: for each line read from
// standard input, which holds a thread count, it times the reference
// workload once on that many threads and writes the time in nanoseconds,
// until standard input closes.
func serveCalibration() {
	ref := newReference()
	in := bufio.NewReader(os.Stdin)
	for {
		line, err := in.ReadString('\n')
		if err != nil {
			return
		}
		threads, err := strconv.Atoi(strings.TrimSpace(line))
		if err != nil || threads < 1 {
			threads = 1
		}
		start := time.Now()
		ref.run(threads)
		if _, err := fmt.Println(time.Since(start).Nanoseconds()); err != nil {
			return
		}
	}
}

// reference is the fixed reference workload. It uses the resources the
// program uses: dependent loads around a 32 MB cycle, which stays in a
// large shared last-level cache and so feels what neighbours do to it, as
// SAT search does; hash-map lookups; SHA-256 for plain arithmetic; and
// short-lived pointer-rich allocations over a live pointer graph, so that
// the Go collector runs concurrently, as it does in the replays.
type reference struct {
	chase   []uint32
	table   map[uint64]uint64
	live    []*refNode
	workers []*refWorker
}

// refWorker is one thread's private state.
type refWorker struct {
	buf     []byte
	garbage *refNode
	sink    uint64
}

type refNode struct {
	next *refNode
	val  [8]uint64
	name string
}

const goldenGamma = 0x9E3779B97F4A7C15

func newReference() *reference {
	const n = 1 << 23
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(12345)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	// One cycle through every slot, in a random order.
	chase := make([]uint32, n)
	for i := range perm {
		chase[perm[i]] = perm[(i+1)%n]
	}
	table := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		table[i*goldenGamma] = i
	}
	live := make([]*refNode, 100_000)
	for i := range live {
		live[i] = &refNode{name: strconv.Itoa(i)}
		if i > 0 {
			live[i].next = live[(i*7919)%i]
		}
	}
	return &reference{chase: chase, table: table, live: live}
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run runs the reference workload on threads goroutines at once.
func (r *reference) run(threads int) {
	for len(r.workers) < threads {
		r.workers = append(r.workers, &refWorker{buf: make([]byte, 1<<18)})
	}
	var wg sync.WaitGroup
	for _, w := range r.workers[:threads] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(r)
		}()
	}
	wg.Wait()
}

func (w *refWorker) run(r *reference) {
	p := uint32(0)
	for i := 0; i < 200_000; i++ {
		p = r.chase[p]
	}
	x, acc := uint64(1), uint64(p)
	for i := 0; i < 200_000; i++ {
		x = xorshift(x)
		acc += r.table[(x&0xffff)*goldenGamma]
	}
	for i := 0; i < 10; i++ {
		s := sha256.Sum256(w.buf)
		w.buf[0] = s[0]
	}
	// Chains of up to 64 nodes, each dropped when the next one starts.
	for i := 0; i < 200_000; i++ {
		n := &refNode{next: w.garbage, name: strconv.Itoa(i)}
		n.val[0] = uint64(i)
		if i%64 == 0 {
			w.garbage = nil
		} else {
			w.garbage = n
		}
	}
	w.sink += acc
}
