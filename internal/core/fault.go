package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"crocus/internal/isle"
)

// PanicError is the diagnostics bundle for a panic contained during rule
// verification: which rule and type instantiation were being verified,
// the recovered value, and the goroutine stack at the panic site. Sweeps degrade the
// fault to an OutcomeError result instead of crashing (Crux treats
// solver-backend failure as a first-class, recoverable outcome).
type PanicError struct {
	// Rule is the name of the rule being verified.
	Rule string
	// Sig is the active type instantiation, or "" when the fault happened
	// before one was selected (e.g. during monomorphization).
	Sig string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *PanicError) Error() string {
	sig := ""
	if e.Sig != "" {
		sig = fmt.Sprintf(" [%s]", e.Sig)
	}
	return fmt.Sprintf("panic verifying %s%s: %v", e.Rule, sig, e.Value)
}

func newPanicError(rule *isle.Rule, sig *isle.Sig, val any) *PanicError {
	pe := &PanicError{
		Rule:  rule.Name,
		Value: val,
		Stack: string(debug.Stack()),
	}
	if sig != nil {
		pe.Sig = sig.String()
	}
	return pe
}

func isPanicErr(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// erroredResult wraps a contained per-rule fault as a RuleResult with a
// single OutcomeError instantiation carrying the fault, so sweeps report
// the rule as errored instead of dying.
func erroredResult(rule *isle.Rule, err error) *RuleResult {
	return &RuleResult{Rule: rule, Insts: []InstOutcome{{Outcome: OutcomeError, Err: err}}}
}
