package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"crocus/internal/isle"
	"crocus/internal/smt"
	"crocus/internal/vcache"
)

// EngineVersion salts every vcache fingerprint. Bump it whenever the
// solver, bit-blaster, elaborator, or verification-condition shape
// changes in a way that could alter verdicts: old cache entries then stop
// matching and are re-solved rather than trusted.
const EngineVersion = "crocus-engine-5"

// prepared holds one monomorphized assignment's elaborated verification
// conditions, ready both for fingerprinting and for solving: the Eq. 1
// antecedents (P/R sets plus custom assumptions) and the Eq. 2/3 goal.
type prepared struct {
	el   *elaboration
	base []smt.TermID // P_LHS ∧ R_LHS ∧ P_RHS ∧ A_n (Eq. 1)
	goal smt.TermID   // condition ∧ R_RHS (Eq. 2/3 consequent)
}

// unitScope derives the SMT variable-name prefix for one monomorphized
// assignment of a verification unit. It depends only on the unit's
// content (type signature and assignment index), so the same unit hashes
// to the same fingerprint whether it is prepared standalone or inside a
// rule sweep. The characters used are all SMT-LIB-name-safe (see
// smtlibName), so canonical queries stay unquoted.
func unitScope(sig *isle.Sig, idx int) string {
	var sb strings.Builder
	sb.WriteString("u")
	if sig != nil {
		for _, r := range sig.String() {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
				sb.WriteRune(r)
			} else {
				sb.WriteByte('_')
			}
		}
	}
	fmt.Fprintf(&sb, ".a%d.", idx)
	return sb.String()
}

// prepareAssignment elaborates one assignment and builds its queries
// without solving anything. This is the "parse-time" half of
// verification; on a warm cache run it is all the work that happens.
// A nil builder elaborates into a fresh one; a shared builder must come
// with a content-derived scope (unitScope) so variable names are unique
// and deterministic.
func (v *Verifier) prepareAssignment(ra *ruleAnalysis, a *assignment, bld *smt.Builder, scope string) (*prepared, error) {
	el, err := v.elaborate(ra, a, bld, scope)
	if err != nil {
		return nil, err
	}
	b := el.b

	ctx := &VCContext{
		B:         b,
		LHSResult: el.LHSResult,
		RHSResult: el.RHSResult,
		Var: func(name string) (smt.TermID, bool) {
			t, ok := el.varVal[name]
			return t, ok
		},
	}
	custom := v.Opts.Custom[ra.rule.Name]
	var extraAssumptions []smt.TermID
	if custom != nil && custom.Assumptions != nil {
		extraAssumptions, err = custom.Assumptions(ctx)
		if err != nil {
			return nil, err
		}
	}

	base := make([]smt.TermID, 0, len(el.pLHS)+len(el.rLHS)+len(el.pRHS)+len(extraAssumptions))
	base = append(base, el.pLHS...)
	base = append(base, el.rLHS...)
	base = append(base, el.pRHS...)
	base = append(base, extraAssumptions...)

	cond := b.Eq(el.LHSResult, el.RHSResult)
	if custom != nil && custom.Condition != nil {
		cond, err = custom.Condition(ctx)
		if err != nil {
			return nil, err
		}
	}
	goal := b.And(append([]smt.TermID{cond}, el.rRHS...)...)

	return &prepared{el: el, base: base, goal: goal}, nil
}

// canonical serializes the prepared queries in the order-independent form
// the fingerprint hashes: the canonical base conjunction (applicability
// query) plus the goal term, separated so distinct (base, goal) splits
// cannot alias.
func (p *prepared) canonical() string {
	var sb strings.Builder
	sb.WriteString(smt.CanonicalQuery(p.el.b, p.base))
	sb.WriteString("(goal ")
	sb.WriteString(p.el.b.String(p.goal))
	sb.WriteString(")\n")
	return sb.String()
}

// fingerprint computes the content address of one (rule, instantiation,
// options) verification unit from its prepared queries. The hash covers
// every input that determines the verdict — the monomorphized VCs
// (which embed rule text, annotations, type instantiation, and custom
// verification conditions), the outcome-affecting options, and the
// engine version — and nothing that doesn't (TermIDs, construction
// order, wall-clock). The per-assignment sections are sorted so the hash
// is independent of assignment enumeration order.
func (v *Verifier) fingerprint(preps []*prepared) string {
	sections := make([]string, 0, len(preps)+1)
	sections = append(sections, fmt.Sprintf("opts distinct=%v budget=%d nosh=%v",
		v.Opts.DistinctModels, v.Opts.PropagationBudget, v.Opts.NoStructHash))
	mats := make([]string, len(preps))
	for i, p := range preps {
		mats[i] = p.canonical()
	}
	sort.Strings(mats)
	sections = append(sections, mats...)
	return vcache.Fingerprint(EngineVersion, sections)
}

// recordOutcome stores a freshly solved unit in the cache. budget is the
// final attempt's propagation budget (after any escalation-ladder
// retries), recorded on timeout entries so LookupBudget's staleness
// check compares against what was actually spent, not the base budget.
// Best-effort: a disk write failure is ignored (the in-memory tier
// already has the entry).
func (v *Verifier) recordOutcome(c *vcache.Cache, key string, rule *isle.Rule, sig *isle.Sig, io *InstOutcome, budget int64, elapsed time.Duration) {
	if c == nil || key == "" {
		return
	}
	sigStr := ""
	if sig != nil {
		sigStr = sig.String()
	}
	e := vcache.Entry{
		Key:         key,
		Rule:        rule.Name,
		Sig:         sigStr,
		Outcome:     io.Outcome.String(),
		ElapsedNS:   elapsed.Nanoseconds(),
		Assignments: io.Assignments,
		Stats:       vcache.SolverStats(io.Stats),
	}
	if io.Outcome == OutcomeTimeout {
		e.TriedTimeoutNS = v.Opts.Timeout.Nanoseconds()
		e.TriedBudget = budget
	}
	if io.DistinctInputs != nil {
		d := *io.DistinctInputs
		e.DistinctInputs = &d
	}
	if cex := io.Counterexample; cex != nil {
		ce := &vcache.Counterexample{
			Inputs:   map[string]vcache.Value{},
			LHS:      encodeValue(cex.LHSValue),
			RHS:      encodeValue(cex.RHSValue),
			Rendered: cex.Rendered,
		}
		for k, val := range cex.Inputs {
			ce.Inputs[k] = encodeValue(val)
		}
		e.Cex = ce
	}
	_ = c.Put(e)
}

// applyEntry replays a cached unit result into an InstOutcome.
func applyEntry(e vcache.Entry, io *InstOutcome) error {
	out, err := parseOutcome(e.Outcome)
	if err != nil {
		return err
	}
	io.Outcome = out
	io.Assignments = e.Assignments
	io.Cached = true
	io.Stats = SolverStats(e.Stats)
	if e.DistinctInputs != nil {
		d := *e.DistinctInputs
		io.DistinctInputs = &d
	}
	if e.Cex != nil {
		cex := &Counterexample{
			Inputs:   map[string]smt.Value{},
			LHSValue: decodeValue(e.Cex.LHS),
			RHSValue: decodeValue(e.Cex.RHS),
			Rendered: e.Cex.Rendered,
		}
		for k, val := range e.Cex.Inputs {
			cex.Inputs[k] = decodeValue(val)
		}
		io.Counterexample = cex
	}
	return nil
}

func parseOutcome(s string) (Outcome, error) {
	switch s {
	case "success":
		return OutcomeSuccess, nil
	case "inapplicable":
		return OutcomeInapplicable, nil
	case "failure":
		return OutcomeFailure, nil
	case "timeout":
		return OutcomeTimeout, nil
	default:
		return 0, fmt.Errorf("vcache entry: unknown outcome %q", s)
	}
}

func encodeValue(v smt.Value) vcache.Value {
	return vcache.Value{Kind: uint8(v.Sort.Kind), Width: v.Sort.Width, Bits: v.Bits}
}

func decodeValue(v vcache.Value) smt.Value {
	return smt.Value{Sort: smt.Sort{Kind: smt.SortKind(v.Kind), Width: v.Width}, Bits: v.Bits}
}
