package main

import (
	"flag"
	"io"
	"testing"
)

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
			"server-retries", "hedge-after", "log-format", "log-level"}, ""},
		{[]string{"shard"}, "-shard applies to local sweeps, not -server runs"},
		{[]string{"journal"}, "-journal applies to local sweeps, not -server runs (the daemon's vcache already persists results)"},
		// Visit walks the set flags in name order; the first one is named.
		{[]string{"trace", "cache-dir"}, "-cache-dir applies to local sweeps, not -server runs"},
	} {
		if got := clientCheck(t, tc.names...); got != tc.want {
			t.Errorf("%q: got %q, want %q", tc.names, got, tc.want)
		}
	}
	for name, note := range localOnlyFlags {
		want := "-" + name + " applies to local sweeps, not -server runs" + note
		if got := clientCheck(t, "server", name); got != want {
			t.Errorf("-%s: got %q, want %q", name, got, want)
		}
	}
}
