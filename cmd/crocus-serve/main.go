// Command crocus-serve is the resident verification daemon: it keeps
// parsed corpora, the in-memory vcache tier, and solver infrastructure
// warm and answers rule-verification requests over HTTP/JSON.
//
// Usage:
//
//	crocus-serve [-addr localhost:8742] [-corpora aarch64,x64,midend]
//	             [-cache-dir DIR] [-max-inflight N] [-queue-timeout 30s]
//	             [-drain-timeout 30s] [-timeout 5s] [-max-timeout 10m]
//	             [-faults SPEC] [-pprof-addr ADDR]
//	             [-log-format text|json] [-log-level LEVEL]
//	             [-flight-latency D] [-flight-exemplars N] [-flight-dump PATH]
//
// Endpoints: POST /v1/verify, POST /v1/verify/batch, GET /v1/healthz
// (liveness), GET /v1/readyz (readiness: 503 while draining), GET
// /v1/statusz, GET /metricsz (OpenMetrics text exposition for
// Prometheus scraping), GET /v1/debug/flightz (retained flight-recorder
// exemplars). On SIGTERM (or SIGINT) the daemon drains:
// it stops accepting work, lets in-flight requests finish (or cancels
// them after -drain-timeout), flushes the JSONL cache tier, and exits 0.
// On SIGQUIT it stays up and dumps a Chrome-trace snapshot of the
// flight-recorder ring to -flight-dump.
//
// A request that gets no worker slot within -queue-timeout is shed with
// 429 and Retry-After (a batch with such an item is shed whole), and
// crocus -server retries it after that delay. A repeat of a request
// already answered is replayed from the vcache and takes no slot. -faults (or CROCUS_FAULTS)
// arms the deterministic fault-injection registry for chaos testing;
// statusz reports the armed spec and per-site counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crocus/internal/faultinject"
	"crocus/internal/obs"
	"crocus/internal/obs/promtext"
	"crocus/internal/serve"
)

// flightRingSpans sizes the tracer's span ring: large enough to hold
// the span trees of many concurrent requests, small and fixed so the
// daemon's memory stays bounded over an unbounded lifetime.
const flightRingSpans = 4096

func main() {
	addr := flag.String("addr", "localhost:8742", "listen address")
	corpora := flag.String("corpora", "aarch64,x64,midend", "comma-separated resident corpora to load at startup")
	cacheDir := flag.String("cache-dir", "", "persist verification results under this directory (JSONL tier); empty keeps the cache in memory only")
	maxInflight := flag.Int("max-inflight", 0, "bound on concurrently solving requests; replays take no slot (0 = all CPUs)")
	queueTimeout := flag.Duration("queue-timeout", 30*time.Second, "max wait for a worker slot before replying 429 with Retry-After")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max graceful drain before in-flight requests are canceled")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-unit solver deadline")
	maxTimeout := flag.Duration("max-timeout", 10*time.Minute, "ceiling for request-supplied solver deadlines")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof, expvar metrics, and /metricsz on this address")
	faults := flag.String("faults", "", "arm deterministic fault injection: 'site=kind:prob[:dur],...[,seed=N]' with kinds error|panic|delay|corrupt|kill; overrides $"+faultinject.EnvVar)
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	flightLatency := flag.Duration("flight-latency", 0, "flight-recorder slow-request promotion threshold (0 = -timeout; negative disables slowness promotion)")
	flightExemplars := flag.Int("flight-exemplars", 32, "retained flight-recorder exemplars (ring, newest wins)")
	flightDump := flag.String("flight-dump", "crocus-serve-flight.trace.json", "Chrome-trace dump path for SIGQUIT and contained-panic snapshots (empty disables)")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crocus-serve:", err)
		os.Exit(1)
	}

	if err := faultinject.ArmFromEnv(); err != nil {
		fail(err)
	}
	if *faults != "" {
		if err := faultinject.Arm(*faults); err != nil {
			fail(err)
		}
	}
	if faultinject.Enabled() {
		logger.Info("fault injection armed", slog.String("spec", faultinject.Spec()))
	}

	// The daemon traces into a fixed-size span ring (the flight
	// recorder's raw feed): always on, bounded memory over an unbounded
	// lifetime, dumpable as a Chrome trace on SIGQUIT or panic.
	tracer := obs.New()
	tracer.SetRing(flightRingSpans)
	if *pprofAddr != "" {
		if _, err := obs.ServeDebugAnnounce(logger, "crocus-serve", *pprofAddr, tracer.Registry(),
			promtext.Route(tracer.Registry())); err != nil {
			fail(err)
		}
	}

	var names []string
	for _, c := range strings.Split(*corpora, ",") {
		if c = strings.TrimSpace(c); c != "" {
			names = append(names, c)
		}
	}
	s, err := serve.New(serve.Config{
		Corpora:         names,
		CacheDir:        *cacheDir,
		MaxInflight:     *maxInflight,
		QueueTimeout:    *queueTimeout,
		DrainTimeout:    *drainTimeout,
		Timeout:         *timeout,
		MaxTimeout:      *maxTimeout,
		Tracer:          tracer,
		Logger:          logger,
		FlightLatency:   *flightLatency,
		FlightExemplars: *flightExemplars,
		FlightDump:      *flightDump,
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	logger.Info("crocus-serve: listening",
		slog.String("url", fmt.Sprintf("http://%s", ln.Addr())),
		slog.String("corpora", strings.Join(names, ", ")))

	// SIGQUIT is the live-diagnosis signal: dump the span ring as a
	// Chrome trace and keep serving.
	if *flightDump != "" {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				if err := s.DumpFlight(*flightDump); err != nil {
					logger.Warn("flight dump failed", slog.String("path", *flightDump), slog.Any("error", err))
				} else {
					logger.Info("flight dumped", slog.String("path", *flightDump))
				}
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drained := make(chan error, 1)
	go func() {
		<-ctx.Done()
		logger.Info("crocus-serve: draining")
		drained <- s.Drain()
	}()

	if err := s.Serve(ln); err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	if err := <-drained; err != nil {
		fail(err)
	}
	logger.Info("crocus-serve: drained cleanly")
}
