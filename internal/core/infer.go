package core

import (
	"fmt"
	"sort"

	"crocus/internal/isle"
	"crocus/internal/spec"
)

// assignment is one complete resolution of widths and integer type values
// for a rule under a specific type instantiation: the output of
// monomorphization (§3.1.3). Widths resolved by unification live in the
// typeState; widths and integer values found by the pass-2 solver live in
// the overlay maps (keyed by union-find root).
type assignment struct {
	ra    *ruleAnalysis
	width map[tvar]int
	ival  map[tvar]int64
}

func newAssignment(ra *ruleAnalysis) *assignment {
	return &assignment{ra: ra, width: map[tvar]int{}, ival: map[tvar]int64{}}
}

func (a *assignment) clone() *assignment {
	cp := newAssignment(a.ra)
	for k, w := range a.width {
		cp.width[k] = w
	}
	for k, iv := range a.ival {
		cp.ival[k] = iv
	}
	return cp
}

func (a *assignment) widthOf(v tvar) (int, bool) {
	r := a.ra.ts.find(v)
	if w := a.ra.ts.widths[r]; w != 0 {
		return w, true
	}
	w, ok := a.width[r]
	return w, ok
}

// setWidth records a width for v's root, reporting false on conflict.
func (a *assignment) setWidth(v tvar, w int) bool {
	if w < 1 || w > 64 {
		return false
	}
	r := a.ra.ts.find(v)
	if tw := a.ra.ts.widths[r]; tw != 0 {
		return tw == w
	}
	if cur, ok := a.width[r]; ok {
		return cur == w
	}
	a.width[r] = w
	return true
}

func (a *assignment) intValOf(v tvar) (int64, bool) {
	r := a.ra.ts.find(v)
	iv, ok := a.ival[r]
	return iv, ok
}

// setIntVal records an integer value for v's root, reporting false on
// conflict.
func (a *assignment) setIntVal(v tvar, val int64) bool {
	r := a.ra.ts.find(v)
	if cur, ok := a.ival[r]; ok {
		return cur == val
	}
	a.ival[r] = val
	return true
}

// evalInt evaluates an integer-kinded annotation expression statically
// under the assignment. Only constants, integer variables, widthof, and
// +/-/* are statically evaluable; everything else reports !ok.
func (a *assignment) evalInt(inst *specInstance, e *spec.Expr) (int64, bool) {
	switch e.Kind {
	case spec.ExprConst:
		if e.IsBool || e.BitWidth > 0 {
			return 0, false
		}
		return e.IntVal, true
	case spec.ExprVar:
		s, ok := inst.env[e.Name]
		if !ok {
			return 0, false
		}
		return a.intValOf(s)
	case spec.ExprWidthOf:
		s, ok := inst.exprSlot[e.Args[0]]
		if !ok {
			return 0, false
		}
		w, ok := a.widthOf(s)
		return int64(w), ok
	case spec.ExprBinop:
		x, okx := a.evalInt(inst, e.Args[0])
		y, oky := a.evalInt(inst, e.Args[1])
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case "+":
			return x + y, true
		case "-":
			return x - y, true
		case "*":
			return x * y, true
		}
		return 0, false
	case spec.ExprUnop:
		if e.Op == "-" {
			x, ok := a.evalInt(inst, e.Args[0])
			return -x, ok
		}
		return 0, false
	case spec.ExprIf:
		c, ok := a.evalIntCond(inst, e.Args[0])
		if !ok {
			return 0, false
		}
		if c {
			return a.evalInt(inst, e.Args[1])
		}
		return a.evalInt(inst, e.Args[2])
	case spec.ExprSwitch:
		sc, ok := a.evalInt(inst, e.Args[0])
		if !ok {
			return 0, false
		}
		for _, cs := range e.Cases {
			m, ok := a.evalInt(inst, cs[0])
			if !ok {
				return 0, false
			}
			if m == sc {
				return a.evalInt(inst, cs[1])
			}
		}
		return 0, false
	default:
		return 0, false
	}
}

// evalIntCond statically evaluates a boolean condition over integer
// expressions (comparisons and connectives), used by evalInt for
// integer-valued if/switch helpers such as operand_size.
func (a *assignment) evalIntCond(inst *specInstance, e *spec.Expr) (bool, bool) {
	switch e.Kind {
	case spec.ExprConst:
		if e.IsBool {
			return e.BoolVal, true
		}
		return false, false
	case spec.ExprUnop:
		if e.Op == "!" {
			v, ok := a.evalIntCond(inst, e.Args[0])
			return !v, ok
		}
		return false, false
	case spec.ExprBinop:
		switch e.Op {
		case "=", "!=", "<", "<=", ">", ">=":
			x, okx := a.evalInt(inst, e.Args[0])
			y, oky := a.evalInt(inst, e.Args[1])
			if !okx || !oky {
				return false, false
			}
			switch e.Op {
			case "=":
				return x == y, true
			case "!=":
				return x != y, true
			case "<":
				return x < y, true
			case "<=":
				return x <= y, true
			case ">":
				return x > y, true
			default:
				return x >= y, true
			}
		}
		return false, false
	default:
		return false, false
	}
}

// monomorphize runs both inference passes for one type instantiation and
// returns the set of complete assignments (usually one; empty means the
// rule is inapplicable at this instantiation, per Fig. 3).
func (v *Verifier) monomorphize(rule *isle.Rule, sig *isle.Sig) (*ruleAnalysis, []*assignment, error) {
	ra, err := v.analyzeRule(rule)
	if err != nil {
		if IsTypeConflict(err) {
			return nil, nil, nil
		}
		return nil, nil, err
	}

	// Pin the instruction root's signature (the per-rule type
	// instantiation sets of §3.1.3).
	if sig != nil {
		if ra.irTerm == nil {
			return nil, nil, fmt.Errorf("%s: rule has no instantiated root term", rule)
		}
		if len(sig.Args) != len(ra.irTerm.Args) {
			return nil, nil, fmt.Errorf("%s: instantiation arity %d does not match %s/%d",
				rule, len(sig.Args), ra.irTerm.Name, len(ra.irTerm.Args))
		}
		for i, at := range sig.Args {
			if err := ra.ts.applyMType(ra.nodeSlot[ra.irTerm.Args[i]], at); err != nil {
				return ra, nil, nil // width conflict: inapplicable
			}
		}
		if err := ra.ts.applyMType(ra.nodeSlot[ra.irTerm], sig.Ret); err != nil {
			return ra, nil, nil
		}
	}

	assigns, err := v.inferAssignments(ra)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", rule, err)
	}
	return ra, assigns, nil
}

// candidateWidths is the domain monomorphization enumerates for type
// variables the two inference passes cannot pin.
var candidateWidths = []int{8, 16, 32, 64}

// inferAssignments runs constant seeding, propagation, and the
// enumeration of remaining primary unknowns for an analyzed (and
// possibly sig-pinned) rule, returning every complete assignment.
func (v *Verifier) inferAssignments(ra *ruleAnalysis) ([]*assignment, error) {
	base := newAssignment(ra)

	// Seed integer values of constant rule nodes (e.g. literal type or
	// immediate arguments).
	for n, s := range ra.nodeSlot {
		if n.Kind != isle.NConst {
			continue
		}
		switch ra.ts.kindOf(s) {
		case kBool, kBV:
			continue
		}
		if !base.setIntVal(s, n.IntVal) {
			return nil, nil
		}
	}

	// Propagation to fixpoint over the deferred constraints. A returned
	// conflict means this instantiation admits no typing.
	if !ra.propagate(base) {
		return nil, nil
	}

	// Enumerate any remaining primary unknowns (the solver-based model
	// enumeration of Fig. 3's resolve_unknown_tys, realized as
	// finite-domain search over the candidate width set).
	unknownBV, unknownInt := ra.unknownSlots(base)
	if len(unknownBV)+len(unknownInt) > 6 {
		return nil, fmt.Errorf("too many unresolved type variables (%d)",
			len(unknownBV)+len(unknownInt))
	}
	all := append(append([]tvar{}, unknownBV...), unknownInt...)
	var results []*assignment
	var enumerate func(i int, cur *assignment)
	enumerate = func(i int, cur *assignment) {
		if i == len(all) {
			cand := cur.clone()
			if !ra.propagate(cand) {
				return
			}
			ra.defaultInteriorWidths(cand)
			if ra.checkAll(cand) {
				results = append(results, cand)
			}
			return
		}
		s := all[i]
		for _, w := range candidateWidths {
			next := cur.clone()
			var ok bool
			if i < len(unknownBV) {
				ok = next.setWidth(s, w)
			} else {
				ok = next.setIntVal(s, int64(w))
			}
			if ok {
				enumerate(i+1, next)
			}
		}
	}
	enumerate(0, base)
	return results, nil
}

// propagate applies the deferred constraints to fixpoint, writing concrete
// widths and integer values into the assignment overlay. It reports false
// on a conflict (no valid typing).
func (ra *ruleAnalysis) propagate(a *assignment) bool {
	for changed := true; changed; {
		changed = false
		for _, d := range ra.deferred {
			switch d.kind {
			case dWidthIsValue:
				if val, ok := a.evalInt(d.inst, d.expr); ok {
					if w, had := a.widthOf(d.bv); !had {
						if !a.setWidth(d.bv, int(val)) {
							return false
						}
						changed = true
					} else if int64(w) != val {
						return false
					}
				} else if w, ok := a.widthOf(d.bv); ok {
					// Push the known width back into the expression.
					if ra.pushInt(a, d.inst, d.expr, int64(w), &changed) == conflict {
						return false
					}
				}
			case dIntEq:
				sa, oka := d.inst.exprSlot[d.a]
				if !oka || ra.ts.kindOf(sa) != kInt {
					continue // not an integer equality; handled by the VC
				}
				va, okA := a.evalInt(d.inst, d.a)
				vb, okB := a.evalInt(d.inst, d.b)
				switch {
				case okA && okB:
					if va != vb {
						return false
					}
				case okA:
					if ra.pushInt(a, d.inst, d.b, va, &changed) == conflict {
						return false
					}
				case okB:
					if ra.pushInt(a, d.inst, d.a, vb, &changed) == conflict {
						return false
					}
				}
			case dWidthSum:
				sum, known := 0, true
				for _, arg := range d.args {
					if w, ok := a.widthOf(d.inst.exprSlot[arg]); ok {
						sum += w
					} else {
						known = false
					}
				}
				if known {
					if w, ok := a.widthOf(d.bv); ok {
						if w != sum {
							return false
						}
					} else {
						if !a.setWidth(d.bv, sum) {
							return false
						}
						changed = true
					}
				}
			case dWidthAtLeast:
				if w, ok := a.widthOf(d.bv); ok && w < d.minW {
					return false
				}
			case dWidthGE:
				w1, ok1 := a.widthOf(d.bv)
				w2, ok2 := a.widthOf(d.bv2)
				if ok1 && ok2 && w1 < w2 {
					return false
				}
			}
		}
	}
	return true
}

type pushResult int

const (
	pushed pushResult = iota
	noEffect
	conflict
)

// pushInt back-propagates a known integer value into a variable or
// widthof expression (e.g. learning `ty` from a pinned width, or a width
// from a pinned `ty`).
func (ra *ruleAnalysis) pushInt(a *assignment, inst *specInstance, e *spec.Expr, val int64, changed *bool) pushResult {
	switch e.Kind {
	case spec.ExprVar:
		s, ok := inst.env[e.Name]
		if !ok {
			return noEffect
		}
		if cur, ok := a.intValOf(s); ok {
			if cur != val {
				return conflict
			}
			return noEffect
		}
		a.setIntVal(s, val)
		*changed = true
		return pushed
	case spec.ExprWidthOf:
		s, ok := inst.exprSlot[e.Args[0]]
		if !ok {
			return noEffect
		}
		if w, ok := a.widthOf(s); ok {
			if int64(w) != val {
				return conflict
			}
			return noEffect
		}
		if val < 1 || val > 64 || !a.setWidth(s, int(val)) {
			return conflict
		}
		*changed = true
		return pushed
	default:
		return noEffect
	}
}

// unknownSlots collects the primary unknowns after propagation: union-find
// roots of rule nodes and spec variables that still lack a width (BV) or a
// value (Int). Interior annotation subexpressions are excluded — their
// widths derive from these once assigned (defaultInteriorWidths handles
// the genuinely unconstrained remainder).
func (ra *ruleAnalysis) unknownSlots(a *assignment) (bv, ints []tvar) {
	seenBV := map[tvar]bool{}
	seenInt := map[tvar]bool{}
	consider := func(s tvar) {
		r := ra.ts.find(s)
		switch ra.ts.kinds[r] {
		case kBV:
			if _, ok := a.widthOf(r); !ok && !seenBV[r] {
				seenBV[r] = true
				bv = append(bv, r)
			}
		case kInt:
			if _, ok := a.intValOf(r); !ok && !seenInt[r] {
				seenInt[r] = true
				ints = append(ints, r)
			}
		}
	}
	for _, s := range ra.nodeSlot {
		consider(s)
	}
	for _, inst := range ra.insts {
		for _, s := range inst.env {
			consider(s)
		}
	}
	// nodeSlot and env are maps, so collection order is randomized;
	// canonicalize so assignment enumeration — and with it query
	// construction and vcache fingerprints — is deterministic across runs.
	sort.Slice(bv, func(i, j int) bool { return bv[i] < bv[j] })
	sort.Slice(ints, func(i, j int) bool { return ints[i] < ints[j] })
	return bv, ints
}

// defaultInteriorWidths pins any still-unresolved interior bitvector width
// to the register width; such slots are unconstrained by every deferred
// relation (rare, and harmless because nothing relates them to the rule's
// values beyond the assertions checkAll validates).
func (ra *ruleAnalysis) defaultInteriorWidths(a *assignment) {
	for _, inst := range ra.insts {
		for _, s := range inst.exprSlot {
			r := ra.ts.find(s)
			if ra.ts.kinds[r] == kBV {
				if _, ok := a.widthOf(r); !ok {
					a.setWidth(r, 64)
				}
			}
		}
	}
}

// checkAll re-validates every deferred constraint under a complete
// candidate assignment.
func (ra *ruleAnalysis) checkAll(a *assignment) bool {
	for _, d := range ra.deferred {
		switch d.kind {
		case dWidthIsValue:
			val, ok := a.evalInt(d.inst, d.expr)
			if !ok {
				return false
			}
			w, ok := a.widthOf(d.bv)
			if !ok || int64(w) != val {
				return false
			}
		case dIntEq:
			sa, oka := d.inst.exprSlot[d.a]
			if !oka || ra.ts.kindOf(sa) != kInt {
				continue
			}
			va, okA := a.evalInt(d.inst, d.a)
			vb, okB := a.evalInt(d.inst, d.b)
			if !okA || !okB || va != vb {
				return false
			}
		case dWidthSum:
			sum := 0
			for _, arg := range d.args {
				w, ok := a.widthOf(d.inst.exprSlot[arg])
				if !ok {
					return false
				}
				sum += w
			}
			w, ok := a.widthOf(d.bv)
			if !ok || w != sum {
				return false
			}
		case dWidthAtLeast:
			w, ok := a.widthOf(d.bv)
			if !ok || w < d.minW {
				return false
			}
		case dWidthGE:
			w1, ok1 := a.widthOf(d.bv)
			w2, ok2 := a.widthOf(d.bv2)
			if !ok1 || !ok2 || w1 < w2 {
				return false
			}
		}
	}
	return true
}
