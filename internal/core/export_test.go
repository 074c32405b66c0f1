package core

import (
	"context"

	"crocus/internal/isle"
	"crocus/internal/smt"
)

// oneShot decides every query on a solver of its own, with no encoding or
// learned clauses carried over from the unit's earlier queries.
type oneShot struct{ b *smt.Builder }

func (o oneShot) Check(assertions []smt.TermID, cfg smt.Config) (smt.Result, error) {
	return smt.Check(o.b, assertions, cfg)
}

// VerifyInstantiationOneShot decides rule at sig through the same
// monomorphize/elaborate/query sequence as VerifyInstantiation, but with
// each query on a one-shot solver instead of the unit's session. It is
// the reference for the session differential tests, so it bypasses the
// result cache, sharding and the escalation ladder: a unit is decided at
// Options.PropagationBudget alone.
func (v *Verifier) VerifyInstantiationOneShot(rule *isle.Rule, sig *isle.Sig) (*InstOutcome, error) {
	ra, assigns, err := v.monomorphize(rule, sig)
	if err != nil {
		return nil, err
	}
	io := &InstOutcome{Sig: sig, Assignments: len(assigns)}
	if len(assigns) == 0 {
		io.Outcome = OutcomeInapplicable
		return io, nil
	}
	b := smt.NewBuilder()
	preps := make([]*prepared, len(assigns))
	for i, a := range assigns {
		if preps[i], err = v.prepareAssignment(ra, a, b, unitScope(sig, i)); err != nil {
			return nil, err
		}
	}
	io.Outcome, err = v.solveUnit(context.Background(), oneShot{b}, preps, io, v.Opts.PropagationBudget)
	if err != nil {
		return nil, err
	}
	return io, nil
}
