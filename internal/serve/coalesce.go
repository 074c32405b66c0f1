package serve

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"crocus/internal/core"
	"crocus/internal/faultinject"
	"crocus/internal/isle"
	"crocus/internal/obs"
	"crocus/internal/vcache"
)

// flight is one in-progress solve that concurrent identical requests
// share. The leader closes done after storing rr; rr stays nil when the
// flight died before completing (its leader panicked, was canceled, or
// was never admitted to the worker pool) — waiters then retry or fail
// with their own context error.
type flight struct {
	done    chan struct{}
	rr      *core.RuleResult
	waiters atomic.Int64
}

// flightKey is the coalescing key for one request: what it asks for.
// prog is the program's identity — the resident corpus name, or the
// content fingerprint parseFiles computed for inline sources — and
// timeout is the request's resolved per-unit solver deadline; the rest
// are the request's other outcome-affecting options. Equal keys mean
// identical input to the same deterministic pipeline, so one solve
// serves every request with the key. deadline_ms only bounds how long a
// request waits for its verdict, so it stays out. The replay index is
// keyed on it too: it covers every input of the units' fingerprints
// (program, rule, distinct, custom_vc, budget; core.EngineVersion is
// fixed for the process) and of their lookup (timeout, ladder).
func flightKey(prog string, timeout time.Duration, req *VerifyRequest) string {
	return vcache.Fingerprint("serve-flight-2", []string{
		prog,
		req.Rule,
		fmt.Sprintf("timeout=%d distinct=%t custom_vc=%t budget=%d ladder=%v",
			timeout.Nanoseconds(), req.Distinct, req.CustomVC, req.PropagationBudget, req.RetryBudgets),
	})
}

// replay answers a request whose flight key an earlier flight completed
// straight from the vcache: core.Verifier.ReplayRule looks up the unit
// keys that flight recorded, under the request's own timeout and ladder,
// without a front-end pass, a flight, a worker slot or a scheduler hop.
// A replay solves nothing, so it is never shed. It returns nil, and the
// request takes the full path, when the key has no entry or a unit is
// not a hit.
func (s *Server) replay(ctx context.Context, key string, v *core.Verifier, rule *isle.Rule) *core.RuleResult {
	s.mu.Lock()
	keys, ok := s.unitKeys[key]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	sp := obs.Start(ctx, obs.PhaseServeVerify, obs.Str("rule", rule.Name))
	defer sp.End()
	rr := v.ReplayRule(ctx, rule, keys)
	if rr != nil {
		s.reg.Counter("serve.replay.rules").Inc()
	}
	return rr
}

// remember stores the unit keys of a flight's complete result under its
// flight key for replay, before the flight is unregistered, so a request
// that arrives after the flight finds the keys. A result with a faulted
// unit, or with a unit that has assignments but no key, is not stored.
func (s *Server) remember(key string, rr *core.RuleResult) {
	keys := make([]string, len(rr.Insts))
	for i := range rr.Insts {
		io := &rr.Insts[i]
		if io.Outcome == core.OutcomeError || io.Assignments > 0 && io.Key == "" {
			return
		}
		keys[i] = io.Key
	}
	s.mu.Lock()
	if len(s.unitKeys) >= maxReplayKeys {
		s.unitKeys = map[string][]string{}
	}
	s.unitKeys[key] = keys
	s.mu.Unlock()
}

// verifyRuleCoalesced answers the rule by a replay when an earlier
// flight with the key completed. Otherwise it solves the rule,
// deduplicating against identical in-flight requests: the first request
// with a given flight key becomes the leader, claims a worker-pool slot,
// and solves; the rest wait on its result without consuming slots (so a
// storm of identical requests costs one slot total). coalesced reports
// whether the verdict came from another request's flight; queueWait is
// the slot wait (zero for waiters and replays); status is the HTTP
// status to write when err is non-nil (0 lets the caller map context
// errors).
func (s *Server) verifyRuleCoalesced(ctx context.Context, key string, v *core.Verifier, rule *isle.Rule) (rr *core.RuleResult, coalesced bool, queueWait time.Duration, status int, err error) {
	if rr = s.replay(ctx, key, v, rule); rr != nil {
		return rr, false, 0, 0, nil
	}
	for {
		s.mu.Lock()
		if f, exists := s.flights[key]; exists {
			f.waiters.Add(1)
			s.mu.Unlock()
			s.reg.Counter("serve.coalesce.wait").Inc()
			select {
			case <-f.done:
				if f.rr != nil {
					return f.rr, true, 0, 0, nil
				}
				// The flight died under its leader (panicked, canceled,
				// or never admitted). If this waiter is still live and the
				// server isn't draining, take another lap — become the
				// leader or join a fresh flight.
				if ctx.Err() == nil && !s.draining.Load() && s.baseCtx.Err() == nil {
					continue
				}
				return nil, false, 0, 0, ctxErr(ctx, s)
			case <-ctx.Done():
				return nil, false, 0, 0, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()
		s.reg.Counter("serve.coalesce.leader").Inc()
		return s.runFlight(ctx, v, rule, key, f)
	}
}

// runFlight executes one flight as its leader. The solve runs under the
// server's base context — bounded by the leader's deadline but not its
// disconnection, since waiters depend on the result — and the flight is
// unregistered before done is closed so late arrivals never join a
// completed flight.
func (s *Server) runFlight(reqCtx context.Context, v *core.Verifier, rule *isle.Rule, key string, f *flight) (rr *core.RuleResult, coalesced bool, queueWait time.Duration, status int, err error) {
	defer func() {
		s.mu.Lock()
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
	}()
	// Chaos failpoint for leader death: the panic unwinds through the
	// defer above (flight unregistered, done closed with rr nil), so
	// waiters take another lap and elect a new leader while the leader's
	// own request degrades to a contained 500.
	if err := faultinject.Hit("serve.flight.leader"); err != nil {
		panic(err)
	}
	queueWait, status, err = s.acquire(reqCtx)
	if err != nil {
		return nil, false, 0, status, err
	}
	defer s.release()
	// The solve runs under baseCtx (waiters outlive the leader's
	// disconnect), but the leader's telemetry identity — its flight and
	// request ID — rides along so the shared solve's spans land in the
	// leader's exemplar.
	ctx := obs.WithFlightFrom(s.baseCtx, reqCtx)
	ctx = obs.WithRequestID(ctx, obs.RequestID(reqCtx))
	if dl, ok := reqCtx.Deadline(); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, dl)
		defer cancel()
	}
	f.rr = s.solveRule(ctx, v, rule)
	if f.rr == nil {
		return nil, false, queueWait, 0, ctxErr(reqCtx, s)
	}
	s.remember(key, f.rr)
	return f.rr, false, queueWait, 0, nil
}

// solveRule is the single funnel to the underlying verifier: every
// solver invocation the server makes increments serve.solve.rules, which
// is what the coalescing tests (and the statusz dedup ratio) count.
func (s *Server) solveRule(ctx context.Context, v *core.Verifier, rule *isle.Rule) *core.RuleResult {
	if s.solveGate != nil {
		s.solveGate(ctx, rule.Name)
	}
	s.reg.Counter("serve.solve.rules").Inc()
	sp := obs.Start(ctx, obs.PhaseServeVerify, obs.Str("rule", rule.Name))
	defer sp.End()
	return v.VerifyRuleContained(ctx, rule)
}

// ctxErr maps a nil result to the most informative error available:
// the request's own context error, or the drain sentinel when the server
// canceled the work out from under a live request.
func ctxErr(ctx context.Context, s *Server) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if s.draining.Load() || s.baseCtx.Err() != nil {
		return errDraining
	}
	return context.Canceled
}
