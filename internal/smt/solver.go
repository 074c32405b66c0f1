package smt

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"crocus/internal/sat"
)

// Status mirrors the SAT result for SMT queries.
type Status = sat.Status

// Re-exported result statuses.
const (
	Unknown  = sat.Unknown
	SatRes   = sat.Sat
	UnsatRes = sat.Unsat
)

// StopReason explains why an Unknown result stopped (budget, deadline,
// or cancellation).
type StopReason = sat.StopReason

// Re-exported stop reasons.
const (
	StopNone     = sat.StopNone
	StopBudget   = sat.StopBudget
	StopDeadline = sat.StopDeadline
	StopCanceled = sat.StopCanceled
)

// Model maps variable names to concrete values for a satisfiable query.
type Model struct {
	vals map[string]Value
}

// Value returns the model value for a variable name.
func (m *Model) Value(name string) (Value, bool) {
	v, ok := m.vals[name]
	return v, ok
}

// Names returns the model's variable names in sorted order.
func (m *Model) Names() []string {
	out := make([]string, 0, len(m.vals))
	for k := range m.vals {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Env converts the model to an evaluation environment.
func (m *Model) Env() Env {
	env := make(Env, len(m.vals))
	for k, v := range m.vals {
		env[k] = v
	}
	return env
}

// String renders the model as sorted name=value lines.
func (m *Model) String() string {
	var sb strings.Builder
	for _, n := range m.Names() {
		fmt.Fprintf(&sb, "%s = %s\n", n, m.vals[n])
	}
	return sb.String()
}

// Result is the outcome of a Check call.
type Result struct {
	Status Status
	Model  *Model // non-nil iff Status == Sat
	// Stop explains an Unknown status: which resource limit or
	// cancellation interrupted the search (StopNone on decided queries).
	Stop StopReason

	// Stats
	SATVars    int
	SATClauses int
	Duration   time.Duration
	// SAT search statistics spent by this query alone
	// (sat.Solver.LastStats; for an incremental Session these are
	// per-call deltas, not session totals).
	Propagations int64
	Conflicts    int64
	Decisions    int64
	Restarts     int64
	// StructHashMerged counts the gate allocations structural hashing
	// avoided during this query alone.
	StructHashMerged int64
}

// Config controls solving resources.
type Config struct {
	// Ctx cancels the query cooperatively: the SAT search polls it
	// periodically and returns Unknown with StopCanceled once it is done.
	// Nil means the query is never canceled.
	Ctx context.Context
	// Deadline aborts the query (Status = Unknown) when passed. Zero means
	// no deadline.
	Deadline time.Time
	// PropagationBudget bounds SAT propagations (0 = unlimited); useful for
	// deterministic timeout tests.
	PropagationBudget int64
	// NoSimplify skips the word-level rewrite pass before blasting. The
	// verdict must not change — the differential tests (internal/difftest)
	// run every query with the pass on and off and assert agreement.
	NoSimplify bool
	// NoSolveEqs skips equality solving (the substitution pass that
	// orients and inlines definitional equalities). As with NoSimplify,
	// this is a correctness cross-checking knob, not a tuning one.
	NoSolveEqs bool
	// NoStructHash disables structural hashing in the bit-blaster (gate
	// memoization across and within queries). Encodings stay
	// semantically identical either way.
	NoStructHash bool
}

// Check decides the conjunction of the given boolean assertions over the
// builder's terms. On Sat, the model assigns every free variable that
// appears (directly or transitively) in the assertions; variables the
// folding eliminated entirely are absent.
//
// Check is the one-shot entry point: it runs a fresh single-query
// Session (simplify → blast → solve). Callers issuing related queries
// over one builder should hold a Session and amortize the encoding.
func Check(b *Builder, assertions []TermID, cfg Config) (Result, error) {
	return NewSession(b).Check(assertions, cfg)
}

// collectVars accumulates the free variables under id.
func collectVars(b *Builder, id TermID, out map[TermID]bool) {
	seen := map[TermID]bool{}
	var walk func(TermID)
	walk = func(x TermID) {
		if seen[x] {
			return
		}
		seen[x] = true
		t := b.Term(x)
		if t.Op == OpVar {
			out[x] = true
			return
		}
		for i := 0; i < t.NArg; i++ {
			walk(t.Args[i])
		}
	}
	walk(id)
}

// Vars returns the names of the free variables under id, sorted.
func Vars(b *Builder, id TermID) []string {
	set := map[TermID]bool{}
	collectVars(b, id, set)
	names := make([]string, 0, len(set))
	for v := range set {
		names = append(names, b.Term(v).Name)
	}
	sort.Strings(names)
	return names
}
