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

// printVerdict is the single renderer behind both pipelines: local
// results arrive through serve.NewRuleVerdict, daemon replies as
// decoded. It prints one rule's per-instantiation outcomes (and, under
// -stats, its cumulative SAT statistics), updating the exit code on
// counterexamples.
func printVerdict(v *serve.RuleVerdict, stats bool, exit *int) {
	var dur time.Duration
	var agg crocus.SolverStats
	cached := 0
	var outs []string
	for _, iv := range v.Insts {
		dur += time.Duration(iv.DurationNS)
		agg.Add(iv.Stats)
		s := iv.Outcome
		if iv.Sig != "" {
			s = fmt.Sprintf("%s:%s", iv.SigRet, iv.Outcome)
		}
		if iv.Cached {
			cached++
			s += "*"
		}
		if iv.Escalations > 0 {
			s += fmt.Sprintf("^%d", iv.Escalations)
		}
		if iv.DistinctInputs != nil && !*iv.DistinctInputs {
			s += "!single-model"
		}
		outs = append(outs, s)
	}
	fmt.Printf("%-30s %-12s %8.2fs  [%s]\n",
		v.Rule, v.Outcome, dur.Seconds(), strings.Join(outs, " "))
	if stats {
		fmt.Printf("    stats: %s  cached=%d/%d\n", agg, cached, len(v.Insts))
	}
	for _, iv := range v.Insts {
		if cex := iv.Counterexample; cex != nil && cex.Rendered != "" {
			sig := iv.Sig
			if sig == "" {
				sig = "<nil>" // fmt's rendering of a nil signature
			}
			fmt.Printf("  counterexample (%s):\n%s\n", sig, indent(cex.Rendered))
			*exit = 2
		}
		if iv.Outcome == crocus.OutcomeError.String() && iv.Error != "" {
			fmt.Printf("  contained fault: %s\n", iv.Error)
		}
	}
	if v.RetriedFresh {
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
}

// runClient submits the run to a crocus-serve daemon and renders the
// verdicts. Returns the process exit code (same convention as local
// verification: 2 on counterexample, 1 on error). Requests go through
// the resilient client: an attempt that stalls past -server-timeout is
// abandoned, and failed attempts (429, 5xx, connection errors) are
// retried up to -server-retries times with capped backoff, waiting at
// least the Retry-After a shedding daemon sends.
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
		printVerdict(&resp.Verdict, cfg.stats, &exit)
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
			printVerdict(item.Verdict, cfg.stats, &exit)
			counts.addOutcome(item.Verdict.Outcome)
		}
	}
	if cfg.ruleName == "" {
		fmt.Printf("summary: %d rules — %s\n", counts.total, counts.String())
	}
	return exit
}
