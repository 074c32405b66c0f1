// Package serve is the crocus verification daemon: a long-running
// HTTP/JSON front end that keeps parsed corpora, the in-memory vcache
// tier, and solver infrastructure resident across requests.
//
// Endpoints:
//
//	POST /v1/verify        verify one rule (JSON in/out, per-request deadline)
//	POST /v1/verify/batch  verify many rules concurrently in one call
//	GET  /v1/healthz       liveness (200 while the process is up, even draining)
//	GET  /v1/readyz        readiness (503 while draining)
//	GET  /v1/statusz       obs counters, histogram summaries, cache stats,
//	                       resource watermarks, fault counters
//	GET  /metricsz         the same registry in OpenMetrics text exposition
//	                       (Prometheus-scrapable)
//	GET  /v1/debug/flightz retained flight-recorder exemplars: full span
//	                       trees of recent slow/timed-out/errored requests
//
// Identical in-flight requests are coalesced: a request that asks for
// the same program, rule and outcome-affecting options as one already
// being solved waits for that flight instead of solving again
// (singleflight semantics). The flight's result lands in the shared
// vcache, and the daemon keeps the vcache key of each of the rule's
// units under the flight key, so a later request that asks for the same
// thing is replayed: its units are looked up straight from the vcache,
// with no front-end pass, no flight and no worker slot. A unit that is
// not a hit sends the request down the full path.
//
// Overload has one answer: a request that gets no worker slot within
// the queue timeout is shed with 429 and a Retry-After header, and a
// batch with any shed item is shed as a whole. A replay needs no slot,
// so it is never shed; the batch's finished items are in the vcache,
// so the client's retry replays them.
//
// On SIGTERM the daemon drains gracefully: it stops accepting work,
// finishes or cancels in-flight requests within the drain timeout,
// flushes the JSONL cache tier, and exits 0.
package serve

import (
	"errors"
	"fmt"
	"time"

	"crocus/internal/core"
	"crocus/internal/obs"
)

// SourceFile is one ISLE source shipped inline with a request.
type SourceFile struct {
	Name string `json:"name"`
	Src  string `json:"src"`
}

// VerifyRequest asks the daemon to verify one rule. The program comes
// either from a resident corpus (Corpus: "aarch64", "x64", "midend") or
// from inline ISLE sources (Files), parsed server-side and cached by
// content. Exactly one of Corpus/Files must be set.
type VerifyRequest struct {
	Corpus string       `json:"corpus,omitempty"`
	Files  []SourceFile `json:"files,omitempty"`

	// Rule names the rule to verify (required).
	Rule string `json:"rule"`

	// TimeoutMS is the per-unit solver deadline in milliseconds.
	// 0 means the server default; negative means unlimited (clamped to
	// the server's -max-timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// DeadlineMS bounds the whole request (queue wait + solving) in
	// milliseconds; 0 means no request deadline beyond the server's.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	Distinct          bool    `json:"distinct,omitempty"`
	CustomVC          bool    `json:"custom_vc,omitempty"`
	PropagationBudget int64   `json:"propagation_budget,omitempty"`
	RetryBudgets      []int64 `json:"retry_budgets,omitempty"`
}

// Counterexample is the wire form of a verification counterexample.
type Counterexample struct {
	Inputs   map[string]string `json:"inputs,omitempty"`
	LHS      string            `json:"lhs"`
	RHS      string            `json:"rhs"`
	Rendered string            `json:"rendered"`
}

// InstVerdict is one (rule, type instantiation) outcome.
type InstVerdict struct {
	Sig            string           `json:"sig,omitempty"`     // full signature, e.g. "(bv 8) -> (bv 64)"
	SigRet         string           `json:"sig_ret,omitempty"` // return sort alone, e.g. "(bv 64)"
	Outcome        string           `json:"outcome"`
	Cached         bool             `json:"cached,omitempty"`
	Escalations    int              `json:"escalations,omitempty"`
	DistinctInputs *bool            `json:"distinct_inputs,omitempty"`
	Assignments    int              `json:"assignments,omitempty"`
	DurationNS     int64            `json:"duration_ns"`
	Stats          core.SolverStats `json:"stats"`
	Counterexample *Counterexample  `json:"counterexample,omitempty"`
	Error          string           `json:"error,omitempty"`
}

// RuleVerdict is the complete verdict for one rule.
type RuleVerdict struct {
	Rule         string        `json:"rule"`
	Outcome      string        `json:"outcome"`
	RetriedFresh bool          `json:"retried_fresh,omitempty"`
	Coalesced    bool          `json:"coalesced,omitempty"` // served by another request's in-flight solve
	Insts        []InstVerdict `json:"insts"`
}

// RequestStats is the serving-side metadata attached to each response.
type RequestStats struct {
	QueueWaitNS int64 `json:"queue_wait_ns"`
	TotalNS     int64 `json:"total_ns"`
}

// VerifyResponse is the /v1/verify reply.
type VerifyResponse struct {
	Verdict RuleVerdict  `json:"verdict"`
	Stats   RequestStats `json:"stats"`
}

// BatchRequest is the /v1/verify/batch payload.
type BatchRequest struct {
	Requests []VerifyRequest `json:"requests"`
}

// BatchItem pairs one batch entry's verdict with its per-item status:
// "ok", or "error" with the message (an item failing — unknown rule,
// parse error, contained panic — never fails the batch; only an item
// shed by the queue timeout does, as a 429 for the whole batch).
type BatchItem struct {
	Status   string       `json:"status"`
	Error    string       `json:"error,omitempty"`
	Verdict  *RuleVerdict `json:"verdict,omitempty"`
	ReqStats RequestStats `json:"stats"`
}

// BatchResponse is the /v1/verify/batch reply, item i answering
// request i.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
}

// ErrorResponse is the JSON body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// FlightzResponse is the /v1/debug/flightz reply: the flight recorder's
// counters plus its retained exemplars, newest first.
type FlightzResponse struct {
	Finished  int64          `json:"finished"`
	Promoted  int64          `json:"promoted"`
	LatencyNS int64          `json:"latency_ns"`
	Exemplars []obs.Exemplar `json:"exemplars"`
}

// NewRuleVerdict converts a core result to its wire form.
func NewRuleVerdict(rr *core.RuleResult) RuleVerdict {
	v := RuleVerdict{
		Rule:         rr.Rule.Name,
		Outcome:      rr.Outcome().String(),
		RetriedFresh: rr.RetriedFresh,
		Insts:        make([]InstVerdict, 0, len(rr.Insts)),
	}
	for i := range rr.Insts {
		v.Insts = append(v.Insts, newInstVerdict(&rr.Insts[i]))
	}
	return v
}

func newInstVerdict(io *core.InstOutcome) InstVerdict {
	iv := InstVerdict{
		Outcome:     io.Outcome.String(),
		Cached:      io.Cached,
		Escalations: io.Escalations,
		Assignments: io.Assignments,
		DurationNS:  io.Duration.Nanoseconds(),
		Stats:       io.Stats,
	}
	if io.Sig != nil {
		iv.Sig = io.Sig.String()
		iv.SigRet = io.Sig.Ret.String()
	}
	if io.DistinctInputs != nil {
		d := *io.DistinctInputs
		iv.DistinctInputs = &d
	}
	if cex := io.Counterexample; cex != nil {
		wc := &Counterexample{
			Inputs:   map[string]string{},
			LHS:      cex.LHSValue.String(),
			RHS:      cex.RHSValue.String(),
			Rendered: cex.Rendered,
		}
		for k, val := range cex.Inputs {
			wc.Inputs[k] = val.String()
		}
		iv.Counterexample = wc
	}
	if io.Err != nil {
		iv.Error = io.Err.Error()
	}
	return iv
}

// validate rejects a request that names no rule or asks for a negative
// propagation budget, which the solver would read as unlimited and the
// cache would then hold as a timeout that is stale on every run.
func (req *VerifyRequest) validate() error {
	if req.Rule == "" {
		return errors.New("missing rule name")
	}
	if req.PropagationBudget < 0 {
		return fmt.Errorf("bad propagation_budget %d (want >= 0; 0 = unlimited)", req.PropagationBudget)
	}
	for _, b := range req.RetryBudgets {
		if b < 0 {
			return fmt.Errorf("bad retry_budgets entry %d (want >= 0; 0 = unlimited)", b)
		}
	}
	return nil
}

// timeoutFromMS resolves a request's TimeoutMS against the server's
// default and ceiling.
func timeoutFromMS(ms int64, def, max time.Duration) time.Duration {
	switch {
	case ms == 0:
		return def
	case ms < 0:
		return max
	default:
		d := time.Duration(ms) * time.Millisecond
		if d > max {
			return max
		}
		return d
	}
}
