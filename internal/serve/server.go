package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/faultinject"
	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/obs/promtext"
	"crocus/internal/sched"
	"crocus/internal/vcache"
)

// Config configures a verification daemon.
type Config struct {
	// Corpora names the embedded corpora to parse at startup and keep
	// resident ("aarch64", "x64", "midend"). Empty loads all three.
	Corpora []string

	// CacheDir backs the shared vcache with a JSONL tier persisted under
	// this directory; empty keeps results in memory only.
	CacheDir string

	// MaxInflight bounds concurrently solving requests and sizes the
	// shared FIFO worker pool their verification units run on —
	// admission and unit scheduling share one queue. Further requests
	// queue; a replay from the vcache takes no slot. 0 means
	// runtime.NumCPU().
	MaxInflight int

	// QueueTimeout bounds how long a request waits for a worker slot
	// before a 429. 0 means 30s.
	QueueTimeout time.Duration

	// DrainTimeout bounds graceful drain: in-flight requests past it are
	// canceled. 0 means 30s.
	DrainTimeout time.Duration

	// Timeout is the default per-unit solver deadline (requests may set
	// their own, up to MaxTimeout). 0 means 5s.
	Timeout time.Duration

	// MaxTimeout ceils request-supplied solver deadlines. 0 means 10m.
	MaxTimeout time.Duration

	// Tracer carries request spans and, when set, its registry receives
	// the serve counters. Nil still counts (into a private registry) but
	// records no spans.
	Tracer *obs.Tracer

	// Logger receives per-request access logs and server diagnostics.
	// Nil discards them (the nop path is allocation-free).
	Logger *slog.Logger

	// FlightLatency is the tail-sampling threshold: a request slower than
	// this is promoted to a retained flight-recorder exemplar even if
	// nothing else went wrong. 0 defaults to Timeout (one solver deadline
	// spent on a single request is worth keeping); negative disables
	// slowness-based promotion (explicit causes still promote).
	FlightLatency time.Duration

	// FlightExemplars caps retained flight-recorder exemplars (ring,
	// newest wins). 0 means 32.
	FlightExemplars int

	// FlightDump, when set, is the path the daemon dumps a Chrome-trace
	// JSON snapshot of the tracer's span window to on handler panic (and
	// via DumpFlight on SIGQUIT).
	FlightDump string
}

// maxRequestBytes bounds a request body; inline ISLE sources are at most
// a few hundred KB, so 32 MiB is generous.
const maxRequestBytes = 32 << 20

// maxParsedPrograms bounds the content-keyed cache of programs parsed
// from inline request sources. The map is reset (not LRU-evicted) when
// full: resident corpora dominate real traffic, so this only guards
// against an adversarial stream of distinct sources.
const maxParsedPrograms = 128

// maxReplayKeys bounds the replay index the same way: the resident
// corpora have 118 rules, so only a stream of distinct inline programs
// or options fills it, and a reset costs each flight key one more full
// pass.
const maxReplayKeys = 4096

var errDraining = errors.New("server is draining")

// Server is the resident verification daemon. Create with New, expose
// with Handler or Serve, stop with Drain.
type Server struct {
	cfg      Config
	programs map[string]*isle.Program
	cache    *vcache.Cache
	reg      *obs.Registry
	log      *slog.Logger
	fr       *obs.FlightRecorder

	// baseCtx is the lifetime of shared (coalesced) work: flights solve
	// under it, not under any single request's context, so a client
	// disconnect never cancels a solve other waiters depend on. Drain
	// cancels it after the drain window.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	slots chan struct{} // admission semaphore (request-level)
	pool  *sched.Pool   // FIFO worker pool verification units run on

	draining  atomic.Bool
	drainOnce sync.Once

	// Per-request resource watermarks, surfaced in statusz: the highest
	// goroutine count and heap size sampled at any request's admission.
	peakGoroutines atomic.Int64
	peakHeapBytes  atomic.Uint64

	mu      sync.Mutex
	flights map[string]*flight
	parsed  map[string]*isle.Program
	// unitKeys is the replay index: flight key → the vcache key of each
	// of the rule's units, in Sigs order, from a completed flight. It
	// holds fingerprints, never verdicts; the vcache stays the one
	// record of outcomes.
	unitKeys map[string][]string

	httpSrv *http.Server

	// solveGate, when set (tests only), is invoked just before each
	// underlying solve, letting tests hold flights open deterministically.
	// It must respect ctx cancellation.
	solveGate func(ctx context.Context, rule string)
}

// New parses the configured corpora, opens the shared result cache, and
// returns a ready (but not yet listening) server.
func New(cfg Config) (*Server, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = runtime.NumCPU()
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if len(cfg.Corpora) == 0 {
		cfg.Corpora = []string{"aarch64", "x64", "midend"}
	}

	loaders := map[string]func() (*isle.Program, error){
		"aarch64": corpus.LoadAarch64,
		"x64":     corpus.LoadX64,
		"midend":  corpus.LoadMidend,
	}
	programs := make(map[string]*isle.Program, len(cfg.Corpora))
	for _, name := range cfg.Corpora {
		load, ok := loaders[name]
		if !ok {
			return nil, fmt.Errorf("unknown corpus %q (resident corpora: aarch64, x64, midend)", name)
		}
		p, err := load()
		if err != nil {
			return nil, fmt.Errorf("loading corpus %s: %w", name, err)
		}
		programs[name] = p
	}

	var cache *vcache.Cache
	if cfg.CacheDir != "" {
		c, err := vcache.Open(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		cache = c
	} else {
		cache = vcache.NewMemory()
	}

	reg := cfg.Tracer.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}

	flightLatency := cfg.FlightLatency
	if flightLatency == 0 {
		flightLatency = cfg.Timeout
	}
	if flightLatency < 0 {
		flightLatency = 0
	}

	baseCtx, cancel := context.WithCancel(obs.WithTracer(context.Background(), cfg.Tracer))
	s := &Server{
		cfg:        cfg,
		programs:   programs,
		cache:      cache,
		reg:        reg,
		log:        obs.Or(cfg.Logger),
		fr:         obs.NewFlightRecorder(cfg.FlightExemplars, flightLatency),
		baseCtx:    baseCtx,
		cancelBase: cancel,
		slots:      make(chan struct{}, cfg.MaxInflight),
		pool:       sched.NewPool(cfg.MaxInflight, reg),
		flights:    map[string]*flight{},
		parsed:     map[string]*isle.Program{},
		unitKeys:   map[string][]string{},
	}
	s.httpSrv = &http.Server{Handler: s.Handler()}
	return s, nil
}

// Registry returns the registry the serve counters land in.
func (s *Server) Registry() *obs.Registry { return s.reg }

// FlightRecorder returns the daemon's tail-sampling flight recorder.
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.fr }

// Handler returns the daemon's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/verify", s.withRequest("verify", s.handleVerify))
	mux.Handle("/v1/verify/batch", s.withRequest("batch", s.handleBatch))
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/statusz", s.handleStatusz)
	mux.Handle("/metricsz", promtext.Handler(s.reg))
	mux.HandleFunc("/v1/debug/flightz", s.handleFlightz)
	return mux
}

// newRequestID mints a 16-hex-char request identifier.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Entropy exhaustion is effectively impossible; degrade to a
		// constant rather than failing a request over telemetry.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// statusWriter captures the response status for the access log and the
// flight recorder's promotion decision.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// withRequest is the per-request telemetry middleware: it accepts (or
// mints) the X-Request-ID, echoes it on the response, opens the
// request's flight and serve.request span, and emits one access-log
// line when the handler returns. The request ID and flight ride the
// context into every span and error path below.
func (s *Server) withRequest(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-ID", id)

		fl := s.fr.StartFlight(id)
		ctx := obs.WithRequestID(r.Context(), id)
		ctx = obs.WithTracer(ctx, s.cfg.Tracer)
		ctx = obs.WithFlight(ctx, fl)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}

		sp := obs.Start(ctx, obs.PhaseServeRequest,
			obs.Str("endpoint", endpoint), obs.Str("request_id", id))
		h(sw, r.WithContext(ctx))
		sp.End()

		dur := time.Since(start)
		promoted := s.fr.Finish(fl, dur, sw.status)
		s.log.Info("request",
			slog.String("request_id", id),
			slog.String("endpoint", endpoint),
			slog.String("method", r.Method),
			slog.Int("status", sw.status),
			slog.Duration("duration", dur),
			slog.Bool("flight_promoted", promoted))
	})
}

// handleFlightz serves the flight recorder's retained exemplars: the
// span trees of recent slow / timed-out / errored / escalated requests,
// newest first, addressable by request ID.
func (s *Server) handleFlightz(w http.ResponseWriter, _ *http.Request) {
	defer s.contain(w, nil)
	finished, promoted := s.fr.Stats()
	writeJSON(w, http.StatusOK, &FlightzResponse{
		Finished:  finished,
		Promoted:  promoted,
		LatencyNS: s.fr.Latency().Nanoseconds(),
		Exemplars: s.fr.Exemplars(),
	})
}

// DumpFlight writes a Chrome-trace JSON snapshot of the tracer's
// current span window (the flight-recorder ring) to path — the SIGQUIT
// and panic diagnostic artifact.
func (s *Server) DumpFlight(path string) error {
	if s.cfg.Tracer == nil {
		return errors.New("no tracer configured")
	}
	return s.cfg.Tracer.ExportChromeFile(path)
}

// Serve accepts connections on ln until Drain (or a fatal listener
// error). It returns http.ErrServerClosed after a drain, like
// net/http.Server.Serve.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Drain gracefully shuts the server down: stop admitting work (healthz
// flips to 503, verify requests are rejected), wait up to DrainTimeout
// for in-flight requests, cancel whatever remains, then flush and close
// the shared cache. A forced cancel is still a clean drain (nil error);
// only a cache flush failure is reported.
func (s *Server) Drain() error {
	var derr error
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			// Window expired with requests still in flight: cancel their
			// solves and force-close the connections.
			s.cancelBase()
			_ = s.httpSrv.Close()
		}
		s.cancelBase()
		// All request handlers (and the flights they own) have returned or
		// been canceled by now, so the pool's queue drains fast-skipping
		// canceled units; any post-close straggler falls back to inline
		// execution and still completes.
		s.pool.Close()
		if err := s.cache.Close(); err != nil {
			derr = fmt.Errorf("cache flush: %w", err)
		}
	})
	return derr
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	defer s.contain(w, ctx)
	// Chaos failpoint inside the containment boundary: an injected fault
	// here becomes a 500, never a dead daemon — the invariant the chaos
	// suite asserts.
	if err := faultinject.Hit("serve.handler"); err != nil {
		panic(err)
	}
	s.reg.Counter("serve.requests.verify").Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}

	var req VerifyRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, status, err := s.verifyOne(ctx, &req)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	defer s.contain(w, ctx)
	if err := faultinject.Hit("serve.handler"); err != nil {
		panic(err)
	}
	s.reg.Counter("serve.requests.batch").Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}

	var breq BatchRequest
	if err := decodeJSON(w, r, &breq); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items := make([]BatchItem, len(breq.Requests))
	var shed error // the first item's queue-timeout 429, if any
	var shedOnce sync.Once
	var wg sync.WaitGroup
	for i := range breq.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// A poisoned item degrades to its own error entry; the rest
			// of the batch is unaffected.
			defer func() {
				if p := recover(); p != nil {
					s.reg.Counter("serve.panics").Inc()
					items[i] = BatchItem{Status: "error", Error: fmt.Sprintf("contained panic: %v", p)}
				}
			}()
			resp, status, err := s.verifyOne(ctx, &breq.Requests[i])
			if err != nil {
				if status == http.StatusTooManyRequests {
					shedOnce.Do(func() { shed = err })
				}
				items[i] = BatchItem{Status: "error", Error: err.Error()}
				return
			}
			items[i] = BatchItem{Status: "ok", Verdict: &resp.Verdict, ReqStats: resp.Stats}
		}(i)
	}
	wg.Wait()
	// A shed item sheds the whole batch. As a per-item error in a 200 it
	// would never be retried; a 429 with Retry-After is, and the items
	// that finished are in the vcache for the retry to replay.
	if shed != nil {
		writeError(w, http.StatusTooManyRequests, shed)
		return
	}
	writeJSON(w, http.StatusOK, &BatchResponse{Items: items})
}

// handleHealthz is pure liveness: the process is up and serving HTTP.
// It stays 200 through a drain — a draining process is alive — so
// orchestrators never kill a daemon for refusing new work. Readiness
// (should traffic be routed here?) is readyz's job.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 while draining, 200 when the daemon
// wants traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// HistogramSummary is the wire digest of one obs histogram. P50/P95/P99
// are conservative bucket upper bounds; the *Est fields are the
// bucket-interpolated estimates sharing their derivation (the same
// power-of-two bucket bounds) with the /metricsz exposition.
type HistogramSummary struct {
	Count  int64   `json:"count"`
	Mean   float64 `json:"mean"`
	P50    int64   `json:"p50"`
	P95    int64   `json:"p95"`
	P99    int64   `json:"p99"`
	P50Est float64 `json:"p50_est"`
	P90Est float64 `json:"p90_est"`
	P99Est float64 `json:"p99_est"`
}

// Watermarks are per-request resource high-water marks: goroutine count
// and heap size sampled at every request admission, plus the current
// values at statusz time.
type Watermarks struct {
	Goroutines     int    `json:"goroutines"`
	PeakGoroutines int64  `json:"peak_goroutines"`
	HeapBytes      uint64 `json:"heap_bytes"`
	PeakHeapBytes  uint64 `json:"peak_heap_bytes"`
}

// StatusReport is the /v1/statusz body.
type StatusReport struct {
	Draining    bool                        `json:"draining"`
	Inflight    int                         `json:"inflight"`
	MaxInflight int                         `json:"max_inflight"`
	Corpora     []string                    `json:"corpora"`
	Counters    map[string]int64            `json:"counters"`
	Histograms  map[string]HistogramSummary `json:"histograms"`
	CacheLen    int                         `json:"cache_len"`
	Cache       vcache.Stats                `json:"cache"`
	// Sched is the shared unit scheduler's live state: real queue depth
	// and per-worker unit totals.
	Sched sched.Stats `json:"sched"`
	// Watermarks are the per-request resource high-water marks.
	Watermarks Watermarks `json:"watermarks"`
	// FaultSpec and Faults surface the fault-injection registry when armed
	// (crocus-serve -faults / CROCUS_FAULTS): the active spec and per-site
	// hit/trigger counts. Omitted when disarmed.
	FaultSpec string                           `json:"fault_spec,omitempty"`
	Faults    map[string]faultinject.SiteStats `json:"faults,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	defer s.contain(w, nil)
	rep := StatusReport{
		Draining:    s.draining.Load(),
		Inflight:    len(s.slots),
		MaxInflight: s.cfg.MaxInflight,
		Counters:    s.reg.Counters(),
		Histograms:  map[string]HistogramSummary{},
		CacheLen:    s.cache.Len(),
		Cache:       s.cache.Stats(),
		Sched:       s.pool.Stats(),
		Watermarks: Watermarks{
			Goroutines:     runtime.NumGoroutine(),
			PeakGoroutines: s.peakGoroutines.Load(),
			HeapBytes:      readHeapBytes(),
			PeakHeapBytes:  s.peakHeapBytes.Load(),
		},
		FaultSpec: faultinject.Spec(),
		Faults:    faultinject.Snapshot(),
	}
	for name := range s.programs {
		rep.Corpora = append(rep.Corpora, name)
	}
	sort.Strings(rep.Corpora)
	for name, snap := range s.reg.Histograms() {
		rep.Histograms[name] = HistogramSummary{
			Count:  snap.Count,
			Mean:   snap.Mean(),
			P50:    snap.Quantile(0.50),
			P95:    snap.Quantile(0.95),
			P99:    snap.Quantile(0.99),
			P50Est: snap.QuantileEst(0.50),
			P90Est: snap.QuantileEst(0.90),
			P99Est: snap.QuantileEst(0.99),
		}
	}
	writeJSON(w, http.StatusOK, &rep)
}

// verifyOne runs one verification request end to end: admission, program
// resolution, replay or queueing and coalesced solve, wire conversion.
// On error it returns the HTTP status the caller should write.
func (s *Server) verifyOne(ctx context.Context, req *VerifyRequest) (*VerifyResponse, int, error) {
	start := time.Now()
	s.noteWatermarks()
	if s.draining.Load() {
		s.reg.Counter("serve.rejected.draining").Inc()
		return nil, http.StatusServiceUnavailable, errDraining
	}
	if err := req.validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	prog, progID, custom, err := s.program(ctx, req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	var rule *isle.Rule
	for _, r := range prog.Rules {
		if r.Name == req.Rule {
			rule = r
			break
		}
	}
	if rule == nil {
		return nil, http.StatusNotFound, fmt.Errorf("rule %q not found", req.Rule)
	}
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	timeout := timeoutFromMS(req.TimeoutMS, s.cfg.Timeout, s.cfg.MaxTimeout)
	v := core.New(prog, core.Options{
		Timeout:           timeout,
		DistinctModels:    req.Distinct,
		PropagationBudget: req.PropagationBudget,
		RetryBudgets:      req.RetryBudgets,
		Custom:            custom,
		Cache:             s.cache,
		Scheduler:         s.pool,
	})
	key := flightKey(progID, timeout, req)
	rr, coalesced, queueWait, status, err := s.verifyRuleCoalesced(ctx, key, v, rule)
	if err != nil {
		switch {
		case status == http.StatusTooManyRequests:
			obs.FlightFromContext(ctx).Promote(obs.FlightShed)
			return nil, status, err
		case status != 0:
			return nil, status, err
		case errors.Is(err, errDraining):
			s.reg.Counter("serve.rejected.draining").Inc()
			return nil, http.StatusServiceUnavailable, err
		case errors.Is(err, context.DeadlineExceeded):
			obs.FlightFromContext(ctx).Promote(obs.FlightTimeout)
			return nil, http.StatusGatewayTimeout, fmt.Errorf("request deadline exceeded")
		default:
			return nil, http.StatusServiceUnavailable, err
		}
	}
	s.promoteForResult(ctx, rr)

	verdict := NewRuleVerdict(rr)
	verdict.Coalesced = coalesced
	return &VerifyResponse{
		Verdict: verdict,
		Stats: RequestStats{
			QueueWaitNS: queueWait.Nanoseconds(),
			TotalNS:     time.Since(start).Nanoseconds(),
		},
	}, 0, nil
}

// promoteForResult flags the request's flight for retention when the
// verdict itself says something interesting happened: a timed-out or
// errored instantiation, or a timeout-ladder escalation.
func (s *Server) promoteForResult(ctx context.Context, rr *core.RuleResult) {
	fl := obs.FlightFromContext(ctx)
	if fl == nil || rr == nil {
		return
	}
	for i := range rr.Insts {
		switch rr.Insts[i].Outcome {
		case core.OutcomeTimeout:
			fl.Promote(obs.FlightTimeout)
		case core.OutcomeError:
			fl.Promote(obs.FlightError)
		}
		if rr.Insts[i].Escalations > 0 {
			fl.Promote(obs.FlightEscalated)
		}
	}
}

// acquire claims a worker-pool slot, waiting at most QueueTimeout.
func (s *Server) acquire(ctx context.Context) (time.Duration, int, error) {
	sp := obs.Start(ctx, obs.PhaseServeQueue)
	defer sp.End()
	start := time.Now()
	timer := time.NewTimer(s.cfg.QueueTimeout)
	defer timer.Stop()
	select {
	case s.slots <- struct{}{}:
		wait := time.Since(start)
		s.reg.Histogram("serve.queue_wait_ns").Observe(wait.Nanoseconds())
		return wait, 0, nil
	case <-timer.C:
		s.reg.Counter("serve.rejected.queue_timeout").Inc()
		return 0, http.StatusTooManyRequests, retryAfterError{
			err:   fmt.Errorf("no worker slot within %s (server at -max-inflight)", s.cfg.QueueTimeout),
			after: s.cfg.QueueTimeout,
		}
	case <-ctx.Done():
		return 0, http.StatusServiceUnavailable, ctx.Err()
	}
}

// noteWatermarks samples goroutine count and heap size at request
// admission, keeping the high-water marks for statusz.
func (s *Server) noteWatermarks() {
	g := int64(runtime.NumGoroutine())
	for {
		cur := s.peakGoroutines.Load()
		if g <= cur || s.peakGoroutines.CompareAndSwap(cur, g) {
			break
		}
	}
	h := readHeapBytes()
	for {
		cur := s.peakHeapBytes.Load()
		if h <= cur || s.peakHeapBytes.CompareAndSwap(cur, h) {
			break
		}
	}
}

// readHeapBytes reads live heap size via runtime/metrics (no
// stop-the-world, unlike ReadMemStats — cheap enough per request).
func readHeapBytes() uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() == metrics.KindUint64 {
		return sample[0].Value.Uint64()
	}
	return 0
}

func (s *Server) release() { <-s.slots }

// program resolves the request's program: a resident corpus or inline
// sources (parsed once per distinct content). id is the program's
// identity in the flight key: the corpus name, or the sources' content
// fingerprint (64 hex digits, so never a resident corpus name).
func (s *Server) program(ctx context.Context, req *VerifyRequest) (prog *isle.Program, id string, custom map[string]*core.CustomVC, err error) {
	sp := obs.Start(ctx, obs.PhaseServeParse)
	defer sp.End()
	switch {
	case req.Corpus != "" && len(req.Files) > 0:
		return nil, "", nil, errors.New("set exactly one of corpus or files")
	case req.Corpus != "":
		p, ok := s.programs[req.Corpus]
		if !ok {
			return nil, "", nil, fmt.Errorf("corpus %q is not resident", req.Corpus)
		}
		s.reg.Counter("serve.parse.resident").Inc()
		prog, id = p, req.Corpus
	case len(req.Files) > 0:
		if prog, id, err = s.parseFiles(req.Files); err != nil {
			return nil, "", nil, err
		}
	default:
		return nil, "", nil, errors.New("missing corpus or files")
	}
	if req.CustomVC {
		custom = corpus.CustomVCs()
	}
	return prog, id, custom, nil
}

// parseFiles parses inline sources, memoized on a content fingerprint so
// a client resubmitting the same files (the common smoke-test loop) hits
// the resident parse. It returns the program and that fingerprint.
func (s *Server) parseFiles(files []SourceFile) (*isle.Program, string, error) {
	sections := make([]string, 0, 2*len(files))
	for _, f := range files {
		sections = append(sections, f.Name, f.Src)
	}
	key := vcache.Fingerprint("serve-prog-1", sections)

	s.mu.Lock()
	if p, ok := s.parsed[key]; ok {
		s.mu.Unlock()
		s.reg.Counter("serve.parse.resident").Inc()
		return p, key, nil
	}
	s.mu.Unlock()

	s.reg.Counter("serve.parse.miss").Inc()
	p := isle.NewProgram()
	for _, f := range files {
		if err := p.ParseFile(f.Name, f.Src); err != nil {
			return nil, "", err
		}
	}
	if err := p.Typecheck(); err != nil {
		return nil, "", err
	}

	s.mu.Lock()
	if len(s.parsed) >= maxParsedPrograms {
		s.parsed = map[string]*isle.Program{}
	}
	s.parsed[key] = p
	s.mu.Unlock()
	return p, key, nil
}

// contain is the handler-level backstop of PR 4's panic containment:
// anything that slips past VerifyRuleContained becomes a 500, never a
// dead process. A contained panic also promotes the request's flight
// (the exemplar carries the span tree leading up to it) and, when
// FlightDump is configured, snapshots the tracer's span window to disk
// while the evidence is still in the ring.
func (s *Server) contain(w http.ResponseWriter, ctx context.Context) {
	if p := recover(); p != nil {
		s.reg.Counter("serve.panics").Inc()
		if ctx != nil {
			obs.FlightFromContext(ctx).Promote(obs.FlightPanic)
		}
		if s.cfg.FlightDump != "" {
			if err := s.DumpFlight(s.cfg.FlightDump); err != nil {
				s.log.Warn("flight dump failed", slog.String("path", s.cfg.FlightDump), slog.Any("error", err))
			} else {
				s.log.Info("flight dumped on panic", slog.String("path", s.cfg.FlightDump))
			}
		}
		writeError(w, http.StatusInternalServerError, fmt.Errorf("contained panic: %v", p))
	}
}

func decodeJSON(w http.ResponseWriter, r *http.Request, into any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The header is out; an encode/write failure (client gone) has no
	// recovery beyond abandoning the response.
	_ = enc.Encode(body)
}

// retryAfterError decorates a shed/rejection error with the backoff the
// server wants the client to take; writeError surfaces it as the
// standard Retry-After header (whole seconds, minimum 1).
type retryAfterError struct {
	err   error
	after time.Duration
}

func (e retryAfterError) Error() string { return e.err.Error() }
func (e retryAfterError) Unwrap() error { return e.err }

func writeError(w http.ResponseWriter, status int, err error) {
	var ra retryAfterError
	if errors.As(err, &ra) {
		secs := int64((ra.after + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, &ErrorResponse{Error: err.Error()})
}
