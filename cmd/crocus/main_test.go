package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// mainEnv makes the test binary run crocus's main instead of the tests,
// so a test can drive the real command in a child process.
const mainEnv = "CROCUS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runCrocus runs crocus with args in a child process and returns its
// stdout, stderr and exit code.
func runCrocus(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// verdictRows blanks the third field of every line, the timing column
// of crocus's verdict rows, as CI's awk '{$3=""; print}' does.
func verdictRows(out string) string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 {
			f[2] = ""
		}
		rows = append(rows, strings.Join(f, " "))
	}
	return strings.Join(rows, "\n")
}

// TestCacheDirOpenFailureDegradesGracefully: a -cache-dir that cannot be
// opened disables caching with one line on stderr, and the run prints
// the same verdicts with the same exit code as a run without a cache.
func TestCacheDirOpenFailureDegradesGracefully(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	wantOut, _, wantCode := runCrocus(t, "-corpus", "midend")
	out, errOut, code := runCrocus(t, "-corpus", "midend", "-cache-dir", filepath.Join(file, "sub"))
	if !strings.Contains(errOut, "crocus: cache disabled:") {
		t.Fatalf("stderr does not say the cache is disabled:\n%s", errOut)
	}
	if code != wantCode {
		t.Fatalf("exit %d, want %d as without a cache", code, wantCode)
	}
	if got, want := verdictRows(out), verdictRows(wantOut); got != want {
		t.Fatalf("verdicts differ from a run without a cache:\n%s\nwant:\n%s", got, want)
	}
}

// TestUnknownRuleFails: a local -rule that names no rule of the corpus
// is an error naming it, as the daemon's 404 is on the -server path,
// not an empty run that exits 0.
func TestUnknownRuleFails(t *testing.T) {
	out, errOut, code := runCrocus(t, "-corpus", "midend", "-rule", "no_such_rule")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, `crocus: rule "no_such_rule" not found`) {
		t.Fatalf("stderr does not name the rule:\n%s", errOut)
	}
	if out != "" {
		t.Fatalf("stdout is not empty:\n%s", out)
	}
}

// TestOverlapRefusesRule: the overlap analysis covers every rule pair,
// so -rule with -overlap is refused before any work instead of being
// silently ignored.
func TestOverlapRefusesRule(t *testing.T) {
	out, errOut, code := runCrocus(t, "-corpus", "midend", "-overlap", "-rule", "no_such_rule")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "crocus: -rule applies to verification, not -overlap") {
		t.Fatalf("stderr does not name -rule:\n%s", errOut)
	}
	if out != "" {
		t.Fatalf("stdout is not empty:\n%s", out)
	}
}

func TestParseBudgets(t *testing.T) {
	for _, tc := range []struct {
		base    int64
		ladder  string
		want    []int64
		wantErr string // "" = accepted
	}{
		{0, "", nil, ""},
		{50000, "100000, 200000,0", []int64{100000, 200000, 0}, ""},
		{-1, "", nil, "bad -propagation-budget -1"},
		{-1, "100000", nil, "bad -propagation-budget -1"},
		{50000, "100000,-1", nil, `bad -retry-budgets entry "-1"`},
		{50000, "x", nil, `bad -retry-budgets entry "x"`},
	} {
		got, err := parseBudgets(tc.base, tc.ladder)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("(%d, %q): err %v, want %q", tc.base, tc.ladder, err, tc.wantErr)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("(%d, %q) = %v, %v; want %v", tc.base, tc.ladder, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("(%d, %q) = %v, want %v", tc.base, tc.ladder, got, tc.want)
				break
			}
		}
	}
}

// clientCheck sets the named flags on a copy of crocus's own flag set
// (every flag by name; checkClientFlags reads only names) and returns
// checkClientFlags's message, or "" when the run is accepted. Setting a
// flag crocus does not define fails the test.
func clientCheck(t *testing.T, names ...string) string {
	t.Helper()
	fs := flag.NewFlagSet("crocus", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	flag.VisitAll(func(f *flag.Flag) { fs.String(f.Name, f.DefValue, f.Usage) })
	for _, name := range names {
		if err := fs.Set(name, "v"); err != nil {
			t.Fatalf("-%s: %v", name, err)
		}
	}
	if err := checkClientFlags(fs); err != nil {
		return err.Error()
	}
	return ""
}

func TestCheckClientFlags(t *testing.T) {
	for _, tc := range []struct {
		names []string
		want  string // "" = accepted
	}{
		{nil, ""},
		// Every flag the -server path reads.
		{[]string{"server", "corpus", "rule", "timeout", "distinct", "custom-vc", "stats",
			"propagation-budget", "retry-budgets", "faults", "server-timeout",
			"server-retries", "log-format", "log-level"}, ""},
		{[]string{"parallel"}, "-parallel applies to local sweeps, not -server runs"},
		// Visit walks the set flags in name order; the first one is named.
		{[]string{"trace", "cache-dir"}, "-cache-dir applies to local sweeps, not -server runs"},
	} {
		if got := clientCheck(t, tc.names...); got != tc.want {
			t.Errorf("%q: got %q, want %q", tc.names, got, tc.want)
		}
	}
	for name := range localOnlyFlags {
		want := "-" + name + " applies to local sweeps, not -server runs"
		if got := clientCheck(t, "server", name); got != want {
			t.Errorf("-%s: got %q, want %q", name, got, want)
		}
	}
}
