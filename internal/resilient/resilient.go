// Package resilient is the self-healing HTTP client behind crocus's
// -server mode: every request runs under a per-attempt timeout, so a
// stalled attempt is abandoned rather than waited on, and failed
// attempts (connection errors, 429s, 5xxs) are retried with capped
// exponential backoff and jitter. When the daemon sheds load it answers
// 429 with Retry-After, and the next attempt waits at least that long.
// Retrying is safe because verification is idempotent and the daemon
// coalesces identical in-flight requests.
//
// The clock-touching seams (backoff sleeps, jitter) are injectable, so
// retry policy is unit-testable without real sleeps; the
// "client.request" fault-injection site fails attempts deterministically
// in chaos tests.
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
// timeout, 3 retries, 100ms..5s backoff.
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

	// Test seams. Nil fields use the real clock.
	Sleep func(ctx context.Context, d time.Duration) error
	Rand  func() float64
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
	Attempts uint64 // individual HTTP attempts issued
	Retries  uint64 // backoff-then-retry rounds
}

// Client issues JSON POSTs with retries. Safe for concurrent use.
type Client struct {
	cfg Config

	attempts atomic.Uint64
	retries  atomic.Uint64
}

// New builds a client from cfg.
func New(cfg Config) *Client {
	return &Client{cfg: cfg}
}

// Stats snapshots the client's resilience counters.
func (c *Client) Stats() Stats {
	return Stats{
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
	}
}

// Summary renders the retry count ("" when the run never retried).
func (s Stats) Summary() string {
	if s.Retries == 0 {
		return ""
	}
	return fmt.Sprintf("server requests: %d retried", s.Retries)
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
		res, err := c.do(ctx, url, body)
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

// wireResult is one attempt's decoded reply.
type wireResult struct {
	status     int
	data       []byte
	retryAfter time.Duration
}

// do issues a single HTTP attempt under the per-attempt timeout: an
// attempt that stalls past it is abandoned, and PostJSON retries. The
// "client.request" failpoint fails attempts here, upstream of the real
// transport, so chaos tests exercise the retry ladder deterministically.
func (c *Client) do(ctx context.Context, url string, body []byte) (*wireResult, error) {
	c.attempts.Add(1)
	if err := faultinject.Hit("client.request"); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.timeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	// The attempt's context deadline bounds the body read too.
	resp, err := http.DefaultClient.Do(req)
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
