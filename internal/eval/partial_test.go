package eval

import (
	"context"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestPartialHeader pins the partial-report marker format the CI smoke
// job greps for.
func TestPartialHeader(t *testing.T) {
	h := PartialHeader(8, 96)
	if !strings.Contains(h, "PARTIAL REPORT") || !strings.Contains(h, "8/96") {
		t.Fatalf("header = %q", h)
	}
	if !strings.HasSuffix(h, "\n") {
		t.Fatalf("header must be a full line: %q", h)
	}
}

// TestTable1ContextCanceled: a dead context yields a partial (here:
// empty) Table 1 with the Interrupted flag set and the PARTIAL marker in
// the render — not an error.
func TestTable1ContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Table1Context(ctx, Config{Timeout: time.Second, PropagationBudget: 1000})
	if err != nil {
		t.Fatalf("canceled Table1Context must flush a partial result, got error: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("Interrupted not set")
	}
	if res.TotalRules != 0 {
		t.Fatalf("TotalRules = %d on a dead context", res.TotalRules)
	}
	if res.ProgramRules != 96 {
		t.Fatalf("ProgramRules = %d, want 96", res.ProgramRules)
	}
	out := res.Render()
	if !strings.Contains(out, "PARTIAL REPORT") {
		t.Fatalf("render missing partial marker:\n%s", out)
	}
}

// TestSIGINTCancelsAndFlushesPartial exercises the interrupt path end to
// end inside the process: a NotifyContext-installed handler receives a
// self-sent SIGINT, the experiment context dies, and the flushed report
// is marked partial.
func TestSIGINTCancelsAndFlushesPartial(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGINT did not cancel the NotifyContext within 5s")
	}

	res, err := Table1Context(ctx, Config{Timeout: time.Second, PropagationBudget: 1000, Rules: []string{"iadd_base"}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || !strings.Contains(res.Render(), "PARTIAL REPORT") {
		t.Fatalf("interrupted run not flagged: interrupted=%v render:\n%s", res.Interrupted, res.Render())
	}
}

// TestBugsStatsContextCanceled: BugsContext's cancellation surfaces as
// ctx.Err() with the completed prefix, never a fabricated full report.
func TestBugsStatsContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := BugsContext(ctx, Config{Timeout: time.Second})
	if err == nil {
		t.Fatal("want ctx.Err() from a dead context")
	}
	if len(out) != 0 {
		t.Fatalf("completed bugs = %d on a dead context", len(out))
	}
}
