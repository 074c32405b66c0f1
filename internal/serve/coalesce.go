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
// flight was canceled (or never admitted to the worker pool) before
// completing — waiters then retry or fail with their own context error.
type flight struct {
	done    chan struct{}
	rr      *core.RuleResult
	waiters atomic.Int64
}

// flightKey derives the coalescing key for one (rule, options) request:
// the vcache fingerprints of every verification unit the rule expands to
// — exactly the content addresses the cache will store results under —
// plus the outcome-affecting options the unit fingerprints don't already
// embed (per-unit timeout, escalation ladder). Two
// requests with equal keys are guaranteed to produce identical verdicts,
// so solving once is sound. ok=false means the rule has an
// unfingerprintable unit (zero assignments, or preparation failed) and
// must not be coalesced.
func (s *Server) flightKey(v *core.Verifier, rule *isle.Rule) (string, bool) {
	sigs := v.Sigs(rule)
	sections := make([]string, 0, len(sigs)+1)
	sections = append(sections, fmt.Sprintf("opts timeout=%d ladder=%v",
		v.Opts.Timeout.Nanoseconds(), v.Opts.RetryBudgets))
	for _, sig := range sigs {
		fp, ok, err := v.FingerprintInstantiation(rule, sig)
		if err != nil || !ok {
			return "", false
		}
		sections = append(sections, fp)
	}
	return vcache.Fingerprint("serve-flight-1", sections), true
}

// verifyRuleCoalesced solves the rule, deduplicating against identical
// in-flight requests: the first request with a given flight key becomes
// the leader, claims a worker-pool slot, and solves; the rest wait on
// its result without consuming slots (so a storm of identical requests
// costs one slot total). coalesced reports whether the verdict came from
// another request's flight; queueWait is the slot wait (zero for
// waiters); status is the HTTP status to write when err is non-nil (0
// lets the caller map context errors).
func (s *Server) verifyRuleCoalesced(ctx context.Context, v *core.Verifier, rule *isle.Rule) (rr *core.RuleResult, coalesced bool, queueWait time.Duration, status int, err error) {
	key, ok := s.flightKey(v, rule)
	if !ok {
		return s.solveSolo(ctx, v, rule)
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
				// The flight died under its leader (canceled, or never
				// admitted). If this waiter is still live and the server
				// isn't draining, take another lap — become the leader or
				// join a fresh flight.
				if cerr := ctxErr(ctx, s); cerr != nil {
					return nil, false, 0, 0, cerr
				}
				continue
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

// solveSolo is the uncoalesceable path: claim a slot, solve under the
// request's own context.
func (s *Server) solveSolo(ctx context.Context, v *core.Verifier, rule *isle.Rule) (rr *core.RuleResult, coalesced bool, queueWait time.Duration, status int, err error) {
	queueWait, status, err = s.acquire(ctx)
	if err != nil {
		return nil, false, 0, status, err
	}
	defer s.release()
	rr = s.solveRule(ctx, v, rule)
	if rr == nil {
		return nil, false, queueWait, 0, ctxErr(ctx, s)
	}
	return rr, false, queueWait, 0, nil
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
