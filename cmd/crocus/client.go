// Server-mode client (-server http://…): submit rules to a running
// crocus-serve daemon instead of verifying locally, rendering the wire
// verdicts through the same display path as local results so the two
// pipelines' outputs are byte-comparable (the CI serve-smoke job diffs
// them).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"crocus"
	"crocus/internal/resilient"
	"crocus/internal/serve"
)

// instDisplay is the rendering-ready form of one instantiation outcome,
// buildable from either a local core result or a wire verdict.
type instDisplay struct {
	HasSig      bool
	SigStr      string // full signature; "<nil>" without one (matching fmt's nil rendering)
	SigRet      string
	Outcome     string
	Cached      bool
	Escalations int
	SingleModel bool
	Duration    time.Duration
	Stats       crocus.SolverStats
	CexRendered string
	FaultMsg    string
}

// ruleDisplay is the rendering-ready form of one rule verdict.
type ruleDisplay struct {
	Name         string
	Outcome      string
	RetriedFresh bool
	Insts        []instDisplay
}

func displayFromResult(rr *crocus.RuleResult) ruleDisplay {
	d := ruleDisplay{
		Name:         rr.Rule.Name,
		Outcome:      rr.Outcome().String(),
		RetriedFresh: rr.RetriedFresh,
	}
	for _, io := range rr.Insts {
		id := instDisplay{
			SigStr:      "<nil>",
			Outcome:     io.Outcome.String(),
			Cached:      io.Cached,
			Escalations: io.Escalations,
			SingleModel: io.DistinctInputs != nil && !*io.DistinctInputs,
			Duration:    io.Duration,
			Stats:       io.Stats,
		}
		if io.Sig != nil {
			id.HasSig = true
			id.SigStr = io.Sig.String()
			id.SigRet = io.Sig.Ret.String()
		}
		if io.Counterexample != nil {
			id.CexRendered = io.Counterexample.Rendered
		}
		if io.Outcome == crocus.OutcomeError && io.Err != nil {
			id.FaultMsg = io.Err.Error()
		}
		d.Insts = append(d.Insts, id)
	}
	return d
}

func displayFromWire(v *serve.RuleVerdict) ruleDisplay {
	d := ruleDisplay{
		Name:         v.Rule,
		Outcome:      v.Outcome,
		RetriedFresh: v.RetriedFresh,
	}
	for _, iv := range v.Insts {
		id := instDisplay{
			HasSig:      iv.Sig != "",
			SigStr:      iv.Sig,
			SigRet:      iv.SigRet,
			Outcome:     iv.Outcome,
			Cached:      iv.Cached,
			Escalations: iv.Escalations,
			SingleModel: iv.DistinctInputs != nil && !*iv.DistinctInputs,
			Duration:    time.Duration(iv.DurationNS),
			Stats:       iv.Stats,
		}
		if id.SigStr == "" {
			id.SigStr = "<nil>"
		}
		if iv.Counterexample != nil {
			id.CexRendered = iv.Counterexample.Rendered
		}
		if iv.Outcome == crocus.OutcomeError.String() && iv.Error != "" {
			id.FaultMsg = iv.Error
		}
		d.Insts = append(d.Insts, id)
	}
	return d
}

// printRuleDisplay is the single renderer behind both pipelines.
func printRuleDisplay(d ruleDisplay, stats bool, exit *int) {
	var dur time.Duration
	var agg crocus.SolverStats
	cached := 0
	var outs []string
	for _, io := range d.Insts {
		dur += io.Duration
		agg.Add(io.Stats)
		if io.Cached {
			cached++
		}
		s := io.Outcome
		if io.HasSig {
			s = fmt.Sprintf("%s:%s", io.SigRet, io.Outcome)
		}
		if io.Cached {
			s += "*"
		}
		if io.Escalations > 0 {
			s += fmt.Sprintf("^%d", io.Escalations)
		}
		if io.SingleModel {
			s += "!single-model"
		}
		outs = append(outs, s)
	}
	fmt.Printf("%-30s %-12s %8.2fs  [%s]\n",
		d.Name, d.Outcome, dur.Seconds(), strings.Join(outs, " "))
	if stats {
		fmt.Printf("    stats: %s  cached=%d/%d\n", agg, cached, len(d.Insts))
	}
	for _, io := range d.Insts {
		if io.CexRendered != "" {
			fmt.Printf("  counterexample (%s):\n%s\n", io.SigStr, indent(io.CexRendered))
			*exit = 2
		}
		if io.FaultMsg != "" {
			fmt.Printf("  contained fault: %s\n", io.FaultMsg)
		}
	}
	if d.RetriedFresh {
		fmt.Printf("  note: first attempt faulted; result from the retry on a new session\n")
	}
}

// clientConfig carries the CLI flags a server-mode run forwards.
type clientConfig struct {
	server     string
	corpusName string
	files      []string
	ruleName   string
	timeout    time.Duration
	distinct   bool
	custom     bool
	stats      bool
	budget     int64
	ladder     []int64
	reqTimeout time.Duration
	retries    int
	hedgeAfter time.Duration
}

// runClient submits the run to a crocus-serve daemon and renders the
// verdicts. Returns the process exit code (same convention as local
// verification: 2 on counterexample, 1 on error). Requests go through
// the resilient client: per-attempt timeouts, capped-backoff retries on
// 429/5xx/connection errors (honoring the daemon's Retry-After when it
// sheds load), and optional hedging — safe because the daemon coalesces
// identical in-flight work.
func runClient(cfg clientConfig) int {
	// Flag semantics: -server-retries 0 means no retries; the library's
	// zero value means the default, so translate 0 to the explicit
	// disable.
	retries := cfg.retries
	if retries == 0 {
		retries = -1
	}
	rc := resilient.New(resilient.Config{
		Timeout:    cfg.reqTimeout,
		MaxRetries: retries,
		HedgeAfter: cfg.hedgeAfter,
	})
	// SIGINT/SIGTERM cancel the in-flight request (and its retries)
	// instead of abandoning the connection.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	postJSON := func(url string, req, resp any) error {
		err := rc.PostJSON(ctx, url, req, resp)
		var herr *resilient.HTTPError
		if errors.As(err, &herr) {
			// Surface the daemon's own message when the body carries one.
			var e serve.ErrorResponse
			if json.Unmarshal(herr.Body, &e) == nil && e.Error != "" {
				return fmt.Errorf("server: %s (HTTP %d)", e.Error, herr.Status)
			}
		}
		return err
	}
	defer func() {
		if s := rc.Stats().Summary(); s != "" {
			fmt.Fprintln(os.Stderr, "crocus:", s)
		}
	}()

	base := serve.VerifyRequest{
		TimeoutMS:         cfg.timeout.Milliseconds(),
		Distinct:          cfg.distinct,
		CustomVC:          cfg.custom,
		PropagationBudget: cfg.budget,
		RetryBudgets:      cfg.ladder,
	}
	if len(cfg.files) > 0 {
		for _, f := range cfg.files {
			b, err := os.ReadFile(f)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crocus:", err)
				return 1
			}
			base.Files = append(base.Files, serve.SourceFile{Name: f, Src: string(b)})
		}
	} else {
		base.Corpus = cfg.corpusName
	}

	// Rule names come from a local parse of the same sources, so the
	// client preserves local verification's source order (and the server
	// never needs a list-rules endpoint).
	var rules []string
	if cfg.ruleName != "" {
		rules = []string{cfg.ruleName}
	} else {
		prog, err := loadProgram(cfg.corpusName, cfg.files)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			return 1
		}
		for _, r := range prog.Rules {
			rules = append(rules, r.Name)
		}
	}

	exit := 0
	var counts outcomeCounts
	if len(rules) == 1 {
		req := base
		req.Rule = rules[0]
		var resp serve.VerifyResponse
		if err := postJSON(cfg.server+"/v1/verify", &req, &resp); err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			return 1
		}
		printRuleDisplay(displayFromWire(&resp.Verdict), cfg.stats, &exit)
		counts.addOutcome(resp.Verdict.Outcome)
	} else {
		breq := serve.BatchRequest{Requests: make([]serve.VerifyRequest, len(rules))}
		for i, name := range rules {
			breq.Requests[i] = base
			breq.Requests[i].Rule = name
		}
		var bresp serve.BatchResponse
		if err := postJSON(cfg.server+"/v1/verify/batch", &breq, &bresp); err != nil {
			fmt.Fprintln(os.Stderr, "crocus:", err)
			return 1
		}
		if len(bresp.Items) != len(rules) {
			fmt.Fprintf(os.Stderr, "crocus: server returned %d verdicts for %d requests\n", len(bresp.Items), len(rules))
			return 1
		}
		for i, item := range bresp.Items {
			if item.Status != "ok" || item.Verdict == nil {
				fmt.Fprintf(os.Stderr, "crocus: %s: server error: %s\n", rules[i], item.Error)
				exit = 1
				continue
			}
			printRuleDisplay(displayFromWire(item.Verdict), cfg.stats, &exit)
			counts.addOutcome(item.Verdict.Outcome)
		}
	}
	if cfg.ruleName == "" {
		fmt.Printf("summary: %d rules — %s\n", counts.total, counts.String())
	}
	return exit
}
