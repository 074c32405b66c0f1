package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/obs"
	"crocus/internal/serve"
)

const (
	// serveInflight is the daemon's MaxInflight and the number of client
	// goroutines: one closed-loop client per worker slot.
	serveInflight = 2
	// The request mix: a small share of inline-source bug programs, a
	// small share of malformed requests, and the rest resident-corpus
	// rules under Zipf-like popularity of exponent zipfExponent. The
	// exponent is mild (the most popular rule is drawn about four times as
	// often as the least) because the seed picks which rules are popular:
	// a steeper skew makes the cost of an average request, and with it
	// allocation per request, depend on that choice.
	inlineShare    = 0.03
	malformedShare = 0.02
	zipfExponent   = 0.3
	// sequenceLen is the length of the generated request sequence: more
	// than a 20 s run sends. The clients cycle through it if a run
	// outlasts it.
	sequenceLen = 1 << 16
)

// serveRequest is one distinct request of the mix, encoded once.
type serveRequest struct {
	body      []byte
	rule      string
	t         *target // the program the rule's known answer comes from
	malformed bool    // must be refused with a 4xx
}

type serveWorkload struct {
	seed     int64
	requests []*serveRequest
	sequence []uint16 // indices into requests, generated from the seed

	srv      *serve.Server
	srvTrace *obs.Tracer
	addr     string
	served   chan error
}

// setupReps is high because a set-up takes only about 40 ms.
func (w *serveWorkload) setupReps() int { return 25 }

// setup parses the corpora on the benchmark's side (to enumerate the
// rules and know their answers), generates the request sequence, and
// starts an untraced daemon on a loopback listener.
func (w *serveWorkload) setup(ctx context.Context, tr *obs.Tracer, _ *calibrator) error {
	ts := shippedTargets()
	if err := loadTargets(tr, ts); err != nil {
		return err
	}
	if err := w.generate(ts); err != nil {
		return err
	}
	return w.start(nil)
}

// generate builds the distinct requests and the seeded sequence over them.
func (w *serveWorkload) generate(ts []*target) error {
	rng := rand.New(rand.NewSource(w.seed))
	w.requests = w.requests[:0]
	add := func(v serve.VerifyRequest, t *target, malformed bool) error {
		v.TimeoutMS = wallBackstop.Milliseconds()
		v.PropagationBudget = propagationBudget
		v.CustomVC = true
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		w.requests = append(w.requests, &serveRequest{body: b, rule: v.Rule, t: t, malformed: malformed})
		return nil
	}
	var resident, inline []int
	for _, t := range ts {
		name, bug := strings.CutPrefix(t.name, "bug:")
		if !bug {
			for _, r := range t.prog.Rules {
				resident = append(resident, len(w.requests))
				if err := add(serve.VerifyRequest{Corpus: name, Rule: r.Name}, t, false); err != nil {
					return err
				}
			}
			continue
		}
		files, err := bugFiles(name)
		if err != nil {
			return err
		}
		rules := make([]string, 0, len(t.expect))
		for r := range t.expect {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		for _, r := range rules {
			inline = append(inline, len(w.requests))
			if err := add(serve.VerifyRequest{Files: files, Rule: r, Distinct: t.distinct}, t, false); err != nil {
				return err
			}
		}
	}
	malformed := len(w.requests)
	if err := add(serve.VerifyRequest{Corpus: "aarch64", Rule: "no_such_rule"}, nil, true); err != nil {
		return err
	}
	if len(w.requests) > math.MaxUint16 {
		return fmt.Errorf("%d distinct requests overflow the sequence index", len(w.requests))
	}

	// Popularity: the seed ranks the resident rules, and rank i is drawn
	// with weight 1/(i+1)^zipfExponent.
	cum := make([]float64, len(resident))
	total := 0.0
	for i := range cum {
		total += 1 / math.Pow(float64(i+1), zipfExponent)
		cum[i] = total
	}
	rank := rng.Perm(len(resident))
	// The sequence opens with every distinct request once, in seeded
	// order, so that every run checks every known answer and does the
	// same cold solves.
	w.sequence = make([]uint16, sequenceLen)
	for i, k := range rng.Perm(len(w.requests)) {
		w.sequence[i] = uint16(k)
	}
	for i := len(w.requests); i < sequenceLen; i++ {
		var k int
		switch u := rng.Float64(); {
		case u < malformedShare:
			k = malformed
		case u < malformedShare+inlineShare:
			k = inline[rng.Intn(len(inline))]
		default:
			k = resident[rank[sort.SearchFloat64s(cum, rng.Float64()*total)]]
		}
		w.sequence[i] = uint16(k)
	}
	return nil
}

// bugFiles is the inline source of one bug program, in the order
// corpus.Load parses it.
func bugFiles(id string) ([]serve.SourceFile, error) {
	for _, b := range corpus.Bugs() {
		if b.ID != id {
			continue
		}
		paths := append(append([]string{"prelude.isle"}, b.Extra...), "bugs/"+b.ID+".isle")
		files := make([]serve.SourceFile, len(paths))
		for i, p := range paths {
			src, err := corpus.Source(p)
			if err != nil {
				return nil, err
			}
			files[i] = serve.SourceFile{Name: p, Src: src}
		}
		return files, nil
	}
	return nil, fmt.Errorf("unknown bug %q", id)
}

// start runs a fresh daemon, traced when tr is not nil, on a loopback
// listener.
func (w *serveWorkload) start(tr *obs.Tracer) error {
	srv, err := serve.New(serve.Config{
		Corpora:      []string{"aarch64", "x64", "midend"},
		MaxInflight:  serveInflight,
		QueueTimeout: 10 * wallBackstop,
		Timeout:      wallBackstop,
		MaxTimeout:   wallBackstop,
		Tracer:       tr,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain()
		return err
	}
	w.srv, w.srvTrace, w.addr = srv, tr, ln.Addr().String()
	w.served = make(chan error, 1)
	go func() { w.served <- srv.Serve(ln) }()
	return nil
}

// stop drains the running daemon and waits for its accept loop to end.
func (w *serveWorkload) stop() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.Drain()
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	w.srv = nil
	return err
}

func (w *serveWorkload) close() error { return w.stop() }

// measure drives the daemon with serveInflight closed-loop clients, each
// sending its next request only after the previous reply is read, until
// the time is up and at least minRequests were sent. The clients run in
// slices of calibEvery; between slices, with no request in flight, cal
// samples the host's speed. A traced phase runs against a fresh daemon
// that carries the tracer.
func (w *serveWorkload) measure(ctx context.Context, tr *obs.Tracer, cal *calibrator, seconds time.Duration, minRequests int) (*phase, error) {
	if tr != w.srvTrace {
		if err := w.stop(); err != nil {
			return nil, err
		}
		if err := w.start(tr); err != nil {
			return nil, err
		}
	}
	transport := &http.Transport{MaxIdleConnsPerHost: serveInflight, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}
	url := "http://" + w.addr + "/v1/verify"
	tctx := obs.WithTracer(ctx, tr)

	var next, done atomic.Int64
	results := make([]clientTally, serveInflight)
	ph := &phase{speed: 1}
	runtime.GC()
	from := cal.begin()
	before := readRuntime()
	for ph.wall < seconds || done.Load() < int64(minRequests) {
		if ph.wall > 0 {
			cal.sample()
		}
		slice := time.Now()
		var wg sync.WaitGroup
		for c := range results {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cctx := obs.WithThread(tctx, fmt.Sprintf("client-%d", c))
				res := &results[c]
				for time.Since(slice) < calibEvery {
					req := w.requests[w.sequence[(next.Add(1)-1)%sequenceLen]]
					res.do(cctx, client, url, req)
					done.Add(1)
				}
			}(c)
		}
		wg.Wait()
		ph.wall += time.Since(slice)
	}
	// The runtime counters cover the slices and the gaps between them,
	// where the benchmark only waits for the calibrator.
	ph.rt = readRuntime().sub(before)
	ph.speed = cal.end(from)
	var problems []string
	for _, r := range results {
		ph.ops += r.ops
		ph.failed += r.failed
		ph.units += r.units
		ph.decided += r.decided
		for _, d := range r.lat {
			ph.lat = append(ph.lat, time.Duration(float64(d)*ph.speed))
		}
		problems = append(problems, r.problems...)
	}
	ph.rawRates = []float64{float64(ph.ops) / ph.wall.Seconds()}
	ph.rates = []float64{ph.rawRates[0] / ph.speed}
	if len(problems) > 0 {
		if len(problems) > 5 {
			problems = append(problems[:5], "...")
		}
		return ph, fmt.Errorf("%w: %d of %d requests failed: %s", errIncorrect, ph.failed, ph.ops, strings.Join(problems, "; "))
	}
	return ph, nil
}

// clientTally is one client's share of a phase.
type clientTally struct {
	ops, failed, units, decided int
	lat                         []time.Duration
	problems                    []string
}

var outcomeByName = func() map[string]core.Outcome {
	m := map[string]core.Outcome{}
	for o := core.OutcomeSuccess; o <= core.OutcomeError; o++ {
		m[o.String()] = o
	}
	return m
}()

// do sends one request, timing it from send until the body is fully
// read, and checks the reply against the request's known answer.
func (r *clientTally) do(ctx context.Context, client *http.Client, url string, req *serveRequest) {
	r.ops++
	sp := obs.Start(ctx, "bench.roundtrip", obs.Str("rule", req.rule))
	start := time.Now()
	status, body, err := post(ctx, client, url, req.body)
	r.lat = append(r.lat, time.Since(start))
	sp.End()
	if problem := r.check(req, status, body, err); problem != "" {
		r.failed++
		if len(r.problems) < 5 {
			r.problems = append(r.problems, problem)
		}
	}
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// check returns why a reply is wrong, or "" when it is right.
func (r *clientTally) check(req *serveRequest, status int, body []byte, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", req.rule, err)
	case req.malformed:
		if status < 400 || status >= 500 {
			return fmt.Sprintf("malformed request got status %d", status)
		}
		return ""
	case status != http.StatusOK:
		return fmt.Sprintf("%s: status %d: %s", req.rule, status, bytes.TrimSpace(body))
	}
	var resp serve.VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Sprintf("%s: decoding reply: %v", req.rule, err)
	}
	got, ok := outcomeByName[resp.Verdict.Outcome]
	if !ok || resp.Verdict.Rule != req.rule || req.t.wrongVerdict(req.rule, got) {
		return fmt.Sprintf("%s/%s: wrong verdict %s %q", req.t.name, req.rule, resp.Verdict.Rule, resp.Verdict.Outcome)
	}
	for _, iv := range resp.Verdict.Insts {
		r.units++
		switch iv.Outcome {
		case core.OutcomeTimeout.String():
		case core.OutcomeError.String():
			return fmt.Sprintf("%s/%s: unit error: %s", req.t.name, req.rule, iv.Error)
		default:
			r.decided++
		}
	}
	return ""
}
