// Package resilient is the self-healing HTTP client behind crocus's
// -server mode: every request runs under a per-attempt timeout, failed
// attempts (connection errors, 429s, 5xxs) are retried with capped
// exponential backoff and jitter — honoring the daemon's Retry-After
// header when it sheds load — and a slow attempt can optionally be
// hedged with a duplicate request. Hedging is safe against crocus-serve
// specifically because the daemon coalesces in-flight requests that ask
// for the same program, rule and outcome-affecting options: the
// duplicate joins the original's flight instead of doubling solver load.
//
// The clock-touching seams (backoff sleeps, the hedge timer, jitter) are
// injectable, so retry and hedge policy is unit-testable without real
// sleeps; the "client.request" fault-injection site fails attempts
// deterministically in chaos tests.
package resilient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crocus/internal/faultinject"
)

// Config tunes the client. The zero value is usable: 2m per-attempt
// timeout, 3 retries, 100ms..5s backoff, hedging off.
type Config struct {
	// Timeout bounds each individual attempt (connect through body read).
	// A hung daemon costs one Timeout per attempt, never a hang.
	Timeout time.Duration
	// MaxRetries is how many times a failed request is retried after the
	// first attempt. Zero means the default (3); negative disables
	// retries entirely.
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential backoff between
	// retries: base·2^attempt, capped, with half-range jitter.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// HedgeAfter launches a duplicate request when an attempt has gone
	// this long without a response; the first reply wins and the loser is
	// canceled. Zero disables hedging.
	HedgeAfter time.Duration

	// Test seams. Nil fields use the real clock.
	Sleep    func(ctx context.Context, d time.Duration) error
	NewTimer func(d time.Duration) (<-chan time.Time, func())
	Rand     func() float64
}

func (c Config) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Minute
	}
	return c.Timeout
}

func (c Config) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 3
	}
	return c.MaxRetries
}

func (c Config) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.BaseBackoff
}

func (c Config) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 5 * time.Second
	}
	return c.MaxBackoff
}

// HTTPError is a non-2xx reply, carrying the status and response body so
// callers can surface the server's own message.
type HTTPError struct {
	Status int
	Body   []byte
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("server: HTTP %d: %s", e.Status, strings.TrimSpace(string(e.Body)))
}

// Stats counts the resilience machinery's activations over the client's
// lifetime, for the end-of-run summary line.
type Stats struct {
	Attempts  uint64 // individual HTTP attempts issued (including hedges)
	Retries   uint64 // backoff-then-retry rounds
	Hedges    uint64 // duplicate requests launched
	HedgeWins uint64 // hedged duplicates that produced the winning reply
}

// Client issues JSON POSTs with retries and hedging. Safe for concurrent
// use.
type Client struct {
	cfg Config
	hc  *http.Client

	attempts  atomic.Uint64
	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
}

// New builds a client from cfg.
func New(cfg Config) *Client {
	return &Client{
		cfg: cfg,
		// The per-attempt context deadline is the primary bound; the
		// http.Client timeout backstops it (covers body reads should a
		// caller pass an unbounded context straight to once()).
		hc: &http.Client{Timeout: cfg.timeout()},
	}
}

// Stats snapshots the client's resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
	}
}

// Summary renders the non-zero resilience counters ("" when the run never
// needed the machinery).
func (s Stats) Summary() string {
	var parts []string
	if s.Retries > 0 {
		parts = append(parts, fmt.Sprintf("%d retried", s.Retries))
	}
	if s.Hedges > 0 {
		parts = append(parts, fmt.Sprintf("%d hedged (%d hedge wins)", s.Hedges, s.HedgeWins))
	}
	if len(parts) == 0 {
		return ""
	}
	return "server requests: " + strings.Join(parts, ", ")
}

// PostJSON POSTs req as JSON to url and decodes the 200 reply into resp,
// retrying retryable failures (connection errors, 429, 5xx) up to
// MaxRetries times. Non-retryable statuses return *HTTPError immediately;
// exhausted retries return the last failure.
func (c *Client) PostJSON(ctx context.Context, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		res, err := c.doHedged(ctx, url, body)
		if err == nil && res.status == http.StatusOK {
			return json.Unmarshal(res.data, resp)
		}
		var retryAfter time.Duration
		if err == nil {
			herr := &HTTPError{Status: res.status, Body: res.data}
			if !retryableStatus(res.status) {
				return herr
			}
			err, retryAfter = herr, res.retryAfter
		}
		// The caller canceling (or an overall deadline) always ends the
		// loop; there is no one left to retry for.
		if ctx.Err() != nil || attempt >= c.cfg.maxRetries() {
			return err
		}
		wait := c.backoff(attempt)
		if retryAfter > wait {
			// The daemon told us when it expects capacity; arriving any
			// sooner just gets shed again.
			wait = retryAfter
		}
		if serr := c.sleep(ctx, wait); serr != nil {
			return err
		}
		c.retries.Add(1)
	}
}

// retryableStatus: 429 means shed load (explicitly retryable, usually
// with Retry-After); 5xx means a contained server fault — verification is
// idempotent and coalesced, so retrying is safe. Other 4xxs are caller
// bugs that a retry would only repeat.
func retryableStatus(status int) bool {
	return status == http.StatusTooManyRequests || status >= 500
}

// backoff computes the attempt'th retry delay: base·2^attempt capped at
// max, with jitter over the upper half (so delays never collapse to zero
// but concurrent clients still decorrelate).
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.baseBackoff() << uint(attempt)
	if max := c.cfg.maxBackoff(); d <= 0 || d > max { // <= 0: shift overflow
		d = max
	}
	r := c.cfg.Rand
	if r == nil {
		r = rand.Float64
	}
	return d/2 + time.Duration(r()*float64(d/2))
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.cfg.Sleep != nil {
		return c.cfg.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (c *Client) newTimer(d time.Duration) (<-chan time.Time, func()) {
	if c.cfg.NewTimer != nil {
		return c.cfg.NewTimer(d)
	}
	t := time.NewTimer(d)
	return t.C, func() { t.Stop() }
}

// wireResult is one attempt's decoded reply.
type wireResult struct {
	status     int
	data       []byte
	retryAfter time.Duration
}

// ok reports a reply the hedging layer should accept immediately rather
// than wait out the sibling attempt.
func (r *wireResult) ok() bool { return !retryableStatus(r.status) }

// doHedged runs one request round under the per-attempt timeout,
// launching a duplicate if the primary is still silent after HedgeAfter.
// First acceptable reply wins; returning cancels the straggler via the
// shared attempt context.
func (c *Client) doHedged(ctx context.Context, url string, body []byte) (*wireResult, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.timeout())
	defer cancel()
	if c.cfg.HedgeAfter <= 0 {
		return c.once(actx, url, body)
	}

	type outcome struct {
		res    *wireResult
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	run := func(hedged bool) {
		res, err := c.once(actx, url, body)
		ch <- outcome{res, err, hedged}
	}
	go run(false)
	timer, stopTimer := c.newTimer(c.cfg.HedgeAfter)
	defer stopTimer()

	outstanding := 1
	hedgeLaunched := false
	var last outcome
	for {
		select {
		case o := <-ch:
			outstanding--
			last = o
			if o.err == nil && o.res.ok() {
				if o.hedged {
					c.hedgeWins.Add(1)
				}
				return o.res, nil
			}
			// A failed attempt with its sibling still in flight: hold out
			// for the sibling. With none left, report the last failure.
			if outstanding == 0 && hedgeLaunched {
				return last.res, last.err
			}
			if outstanding == 0 {
				// Primary failed before the hedge timer: no point hedging
				// a request we already know the answer to.
				return o.res, o.err
			}
		case <-timer:
			if !hedgeLaunched && outstanding > 0 {
				hedgeLaunched = true
				outstanding++
				c.hedges.Add(1)
				go run(true)
			}
		}
	}
}

// once issues a single HTTP attempt. The "client.request" failpoint fails
// attempts here, upstream of the real transport, so chaos tests exercise
// the retry ladder deterministically.
func (c *Client) once(ctx context.Context, url string, body []byte) (*wireResult, error) {
	c.attempts.Add(1)
	if err := faultinject.Hit("client.request"); err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &wireResult{
		status:     resp.StatusCode,
		data:       data,
		retryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}, nil
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the form
// crocus-serve emits). Absent or unparseable headers mean "no advice".
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}
