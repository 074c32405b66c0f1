package core

import (
	"errors"
	"fmt"
	"runtime/debug"

	"crocus/internal/isle"
)

// PanicError is the diagnostics bundle for a panic contained during unit
// verification: which rule and type instantiation were being verified,
// the recovered value, and the goroutine stack at the panic site. The
// unit's fault degrades to an OutcomeError outcome instead of crashing
// (Crux treats solver-backend failure as a first-class, recoverable
// outcome).
type PanicError struct {
	// Rule is the name of the rule being verified.
	Rule string
	// Sig is the unit's type instantiation, or "" for a rule whose root
	// is not instantiated (mid-end rules).
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
