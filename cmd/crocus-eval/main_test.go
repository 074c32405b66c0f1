package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mainEnv makes the test binary run crocus-eval's main instead of the
// tests, so a test can drive the real command in a child process.
const mainEnv = "CROCUS_EVAL_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runEval runs crocus-eval with args in a child process and returns its
// stdout, stderr and exit code.
func runEval(t *testing.T, args ...string) (string, string, int) {
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

// bugDuration is the wall time closing each bug-reproduction header.
var bugDuration = regexp.MustCompile(`(?m) \([0-9][^()]*s\)$`)

// TestCacheDirOpenFailureDegradesGracefully: a -cache-dir that cannot be
// opened disables caching with one line on stderr, and the bug
// reproductions print the same report with the same exit code as a run
// without a cache.
func TestCacheDirOpenFailureDegradesGracefully(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-exp", "knownbugs", "-propagation-budget", "200000"}
	wantOut, _, wantCode := runEval(t, args...)
	out, errOut, code := runEval(t, append(args, "-cache-dir", filepath.Join(file, "sub"))...)
	if !strings.Contains(errOut, "crocus-eval: cache disabled:") {
		t.Fatalf("stderr does not say the cache is disabled:\n%s", errOut)
	}
	if code != wantCode {
		t.Fatalf("exit %d, want %d as without a cache", code, wantCode)
	}
	if !strings.Contains(out, "REPRODUCED") {
		t.Fatalf("no bug reproduction report:\n%s", out)
	}
	if got, want := bugDuration.ReplaceAllString(out, ""), bugDuration.ReplaceAllString(wantOut, ""); got != want {
		t.Fatalf("report differs from a run without a cache:\n%s\nwant:\n%s", got, want)
	}
}

// TestUnknownExperimentFails: an -exp that names no experiment is
// refused with exit 1 and a message listing the valid names, instead of
// running nothing and exiting 0.
func TestUnknownExperimentFails(t *testing.T) {
	out, errOut, code := runEval(t, "-exp", "tabel1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	want := `crocus-eval: unknown -exp "tabel1" (want one of table1, fig4, coverage, knownbugs, newbugs, all)`
	if !strings.Contains(errOut, want) {
		t.Fatalf("stderr = %q, want it to contain %q", errOut, want)
	}
	if out != "" {
		t.Fatalf("stdout is not empty:\n%s", out)
	}
}
