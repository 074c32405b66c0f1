package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// PhaseBreakdown aggregates the recorded spans into per-scope (per-rule)
// phase-time totals — the textual answer to "where does this rule's
// verification time go?".
type PhaseBreakdown struct {
	// Totals maps scope -> phase name -> summed duration. The "" scope
	// collects spans recorded outside any rule (parse, global setup).
	Totals map[string]map[string]time.Duration
	// Counts maps scope -> phase name -> number of spans.
	Counts map[string]map[string]int
}

// PhaseBreakdown computes the aggregation over everything recorded so
// far. Nested spans each contribute their own wall time, so a parent
// phase's column is not the sum of its children's.
func (t *Tracer) PhaseBreakdown() *PhaseBreakdown {
	pb := &PhaseBreakdown{
		Totals: map[string]map[string]time.Duration{},
		Counts: map[string]map[string]int{},
	}
	if t == nil {
		return pb
	}
	for _, ev := range t.Events() {
		tm := pb.Totals[ev.Scope]
		if tm == nil {
			tm = map[string]time.Duration{}
			pb.Totals[ev.Scope] = tm
			pb.Counts[ev.Scope] = map[string]int{}
		}
		tm[ev.Name] += ev.Dur
		pb.Counts[ev.Scope][ev.Name]++
	}
	return pb
}

// PhaseTotals sums each phase across all scopes (the crocus-bench
// report's "obs" section and the quick global view).
func (pb *PhaseBreakdown) PhaseTotals() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, tm := range pb.Totals {
		for phase, d := range tm {
			out[phase] += d
		}
	}
	return out
}

// tableColumns is the preferred column order for the per-rule table;
// phases seen in the data but not listed here are appended
// alphabetically after these.
var tableColumns = []string{
	PhaseMonomorphize, PhaseElaborate, PhaseCacheProbe,
	PhaseSolveEqs, PhaseSimplify, PhaseBlast, PhaseSolve, PhaseEscalation,
}

// Render prints the per-rule phase-breakdown table: one row per scope
// (rule), one column per phase, sorted by total descending so the
// expensive rules lead. maxRows bounds the table (0 = all rows).
func (pb *PhaseBreakdown) Render(maxRows int) string {
	// Column set: preferred order first, then anything else seen.
	seen := map[string]bool{}
	for _, tm := range pb.Totals {
		for phase := range tm {
			seen[phase] = true
		}
	}
	var cols []string
	for _, c := range tableColumns {
		if seen[c] {
			cols = append(cols, c)
			delete(seen, c)
		}
	}
	var rest []string
	for c := range seen {
		if c != PhaseUnit && c != PhaseParse && c != PhaseAttempt &&
			!strings.HasPrefix(c, "query.") {
			rest = append(rest, c)
		}
	}
	sort.Strings(rest)
	cols = append(cols, rest...)

	type row struct {
		scope string
		total time.Duration
	}
	rows := make([]row, 0, len(pb.Totals))
	for scope, tm := range pb.Totals {
		if scope == "" {
			continue
		}
		// Row total: the rule's summed unit spans when present (each
		// unit's wall time), otherwise the sum over leaf phases.
		total, ok := tm[PhaseUnit]
		if !ok {
			for _, c := range cols {
				total += tm[c]
			}
		}
		rows = append(rows, row{scope, total})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].scope < rows[j].scope
	})
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}

	var sb strings.Builder
	sb.WriteString("phase breakdown (per rule, totals across instantiations)\n")
	fmt.Fprintf(&sb, "%-30s %10s", "rule", "total")
	for _, c := range cols {
		fmt.Fprintf(&sb, " %12s", shortCol(c))
	}
	sb.WriteByte('\n')
	ms := func(d time.Duration) string {
		if d == 0 {
			return "-"
		}
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	for _, r := range rows {
		tm := pb.Totals[r.scope]
		fmt.Fprintf(&sb, "%-30s %10s", r.scope, ms(r.total))
		for _, c := range cols {
			fmt.Fprintf(&sb, " %12s", ms(tm[c]))
		}
		sb.WriteByte('\n')
	}
	if global, ok := pb.Totals[""]; ok {
		if d := global[PhaseParse]; d > 0 {
			fmt.Fprintf(&sb, "%-30s %10s\n", "(parse)", ms(d))
		}
	}
	return sb.String()
}

// shortCol trims the package prefix off a phase name for column headers.
func shortCol(c string) string {
	if i := strings.LastIndexByte(c, '.'); i >= 0 {
		return c[i+1:]
	}
	return c
}
