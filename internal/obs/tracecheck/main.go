// Command tracecheck validates a Chrome trace-event JSON file emitted
// by crocus -trace: well-formed JSON, complete events with monotonic
// non-negative timestamps, and at least one span per required pipeline
// phase. CI runs it against the benchmark-smoke trace artifact.
//
// Usage:
//
//	tracecheck [-require phase1,phase2,...] trace.json
//
// The default -require list is the phase set every traced verification
// run emits; extend it (e.g. with cache.probe, solve.escalation) when
// the traced run enables the corresponding features.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"crocus/internal/obs"
)

func defaultRequired() string {
	return strings.Join([]string{
		obs.PhaseParse,
		obs.PhaseUnit,
		obs.PhaseMonomorphize,
		obs.PhaseElaborate,
		obs.PhaseAttempt,
		obs.PhaseQueryApp,
		obs.PhaseQueryEquiv,
		obs.PhaseSolveEqs,
		obs.PhaseSimplify,
		obs.PhaseUnits,
		obs.PhaseBlast,
		obs.PhaseSolve,
	}, ",")
}

func main() {
	require := flag.String("require", defaultRequired(),
		"comma-separated span names that must each appear at least once")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require a,b,c] trace.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	var required []string
	for _, r := range strings.Split(*require, ",") {
		if r = strings.TrimSpace(r); r != "" {
			required = append(required, r)
		}
	}
	st, err := obs.ValidateChromeTrace(data, required)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(st.Phases))
	for n := range st.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("tracecheck: ok — %d spans across %d phases\n", st.Spans, len(names))
	for _, n := range names {
		fmt.Printf("  %-24s %d\n", n, st.Phases[n])
	}
}
