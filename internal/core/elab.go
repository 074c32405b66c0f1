package core

import (
	"fmt"
	"strings"

	"crocus/internal/isle"
	"crocus/internal/smt"
	"crocus/internal/spec"
)

// elaboration lowers one monomorphized rule (analysis + width/value
// assignment) into SMT: every term occurrence contributes its provide
// clauses to P and its require clauses to R, split by rule side (§3.2's
// P/R/A sets). The A sets — fresh variables for term results, wildcards,
// existential spec variables, and convto-widening — are free variables of
// the produced formulas.
type elaboration struct {
	ra *ruleAnalysis
	a  *assignment
	b  *smt.Builder

	// scope prefixes every SMT variable name this elaboration creates.
	// A unit's assignments share one builder, so distinct scopes keep
	// same-named ISLE variables of different assignments from colliding.
	// The scope is derived purely from the unit's content (signature +
	// assignment index), never from sweep position, so fingerprints stay
	// deterministic.
	scope string

	nodeVal map[*isle.TermNode]smt.TermID
	varVal  map[string]smt.TermID // ISLE rule variables by name

	pLHS, rLHS, pRHS, rRHS []smt.TermID

	// LHSResult and RHSResult are the values of the rule's two sides.
	LHSResult, RHSResult smt.TermID

	// inputs are the BV-sorted LHS-bound variables, in binding order:
	// the i_0..i_{n-1} of Eq. 1/2 used for counterexamples and the
	// distinctness check.
	inputs []smt.TermID

	fresh int
}

// elaborate lowers one assignment into SMT terms. A nil builder gets a
// fresh one; passing a shared builder (with a unique scope) lets several
// assignments coexist for incremental solving.
func (v *Verifier) elaborate(ra *ruleAnalysis, a *assignment, b *smt.Builder, scope string) (*elaboration, error) {
	if b == nil {
		b = smt.NewBuilder()
	}
	el := &elaboration{
		ra:      ra,
		a:       a,
		b:       b,
		scope:   scope,
		nodeVal: map[*isle.TermNode]smt.TermID{},
		varVal:  map[string]smt.TermID{},
	}
	lhs, err := el.elabNode(ra.rule.LHS, true)
	if err != nil {
		return nil, err
	}
	el.LHSResult = lhs

	for _, il := range ra.rule.IfLets {
		ev, err := el.elabNode(il.Expr, true)
		if err != nil {
			return nil, err
		}
		pv, err := el.elabNode(il.Pat, true)
		if err != nil {
			return nil, err
		}
		if il.Pat.Kind != isle.NWildcard {
			el.pLHS = append(el.pLHS, el.b.Eq(pv, ev))
		}
	}

	rhs, err := el.elabNode(ra.rule.RHS, false)
	if err != nil {
		return nil, err
	}
	el.RHSResult = rhs

	for _, name := range ra.lhsVars {
		if t, ok := el.varVal[name]; ok && el.b.SortOf(t).Kind == smt.KindBV {
			el.inputs = append(el.inputs, t)
		}
	}
	return el, nil
}

// sortOf maps a typing slot to its concrete SMT sort under the assignment.
func (el *elaboration) sortOf(s tvar, pos fmt.Stringer) (smt.Sort, error) {
	switch el.ra.ts.kindOf(s) {
	case kBool:
		return smt.Bool, nil
	case kInt:
		return smt.Int, nil
	case kBV:
		w, ok := el.a.widthOf(s)
		if !ok {
			return smt.Sort{}, fmt.Errorf("%s: unresolved bitvector width", pos)
		}
		return smt.BV(w), nil
	default:
		// Kind never constrained: default to Int (bare literal positions).
		return smt.Int, nil
	}
}

func (el *elaboration) freshVar(prefix string, sort smt.Sort) smt.TermID {
	el.fresh++
	return el.b.Var(fmt.Sprintf("%s%%%s%d", el.scope, prefix, el.fresh), sort)
}

// slotIntVal returns the static integer value of an Int-kinded slot.
func (el *elaboration) slotIntVal(s tvar, what string) (int64, error) {
	iv, ok := el.a.intValOf(s)
	if !ok {
		return 0, fmt.Errorf("unresolved integer type value for %s", what)
	}
	return iv, nil
}

// elabNode produces the SMT value of a rule tree node and accumulates the
// P/R contributions of every term occurrence beneath it.
func (el *elaboration) elabNode(n *isle.TermNode, onLHS bool) (smt.TermID, error) {
	if t, ok := el.nodeVal[n]; ok {
		return t, nil
	}
	slot := el.ra.nodeSlot[n]
	t, err := el.elabNodeInner(n, slot, onLHS)
	if err != nil {
		return smt.NoTerm, err
	}
	el.nodeVal[n] = t
	return t, nil
}

func (el *elaboration) elabNodeInner(n *isle.TermNode, slot tvar, onLHS bool) (smt.TermID, error) {
	ts := el.ra.ts
	switch n.Kind {
	case isle.NConst:
		switch ts.kindOf(slot) {
		case kBool:
			return el.b.BoolConst(n.IntVal != 0), nil
		case kBV:
			w, ok := el.a.widthOf(slot)
			if !ok {
				return smt.NoTerm, fmt.Errorf("%s: constant with unresolved width", n.Pos)
			}
			return el.b.BVConst(uint64(n.IntVal), w), nil
		default:
			return el.b.IntConst(n.IntVal), nil
		}

	case isle.NVar:
		if ts.kindOf(slot) == kInt {
			iv, err := el.slotIntVal(slot, n.Name)
			if err != nil {
				return smt.NoTerm, fmt.Errorf("%s: %w", n.Pos, err)
			}
			return el.b.IntConst(iv), nil
		}
		if t, ok := el.varVal[n.Name]; ok {
			return t, nil
		}
		sort, err := el.sortOf(slot, n.Pos)
		if err != nil {
			return smt.NoTerm, err
		}
		t := el.b.Var(el.scope+sanitizeName(n.Name), sort)
		el.varVal[n.Name] = t
		return t, nil

	case isle.NWildcard:
		if ts.kindOf(slot) == kInt {
			if iv, ok := el.a.intValOf(slot); ok {
				return el.b.IntConst(iv), nil
			}
		}
		sort, err := el.sortOf(slot, n.Pos)
		if err != nil {
			return smt.NoTerm, err
		}
		return el.freshVar("wild", sort), nil

	case isle.NLet:
		for i := range n.Lets {
			b := &n.Lets[i]
			ev, err := el.elabNode(b.Expr, onLHS)
			if err != nil {
				return smt.NoTerm, err
			}
			el.varVal[b.Name] = ev
		}
		return el.elabNode(n.Body, onLHS)

	case isle.NApply:
		// Result value: a constant for Int-kinded results, a fresh SMT
		// variable otherwise (an element of the A sets).
		var res smt.TermID
		if ts.kindOf(slot) == kInt {
			iv, err := el.slotIntVal(slot, n.Name+" result")
			if err != nil {
				return smt.NoTerm, fmt.Errorf("%s: %w", n.Pos, err)
			}
			res = el.b.IntConst(iv)
		} else {
			sort, err := el.sortOf(slot, n.Pos)
			if err != nil {
				return smt.NoTerm, err
			}
			res = el.freshVar(n.Name+"_", sort)
		}
		args := make([]smt.TermID, len(n.Args))
		for i, an := range n.Args {
			av, err := el.elabNode(an, onLHS)
			if err != nil {
				return smt.NoTerm, err
			}
			args[i] = av
		}
		inst := el.findInstance(n)
		if inst == nil {
			return smt.NoTerm, fmt.Errorf("%s: internal: no spec instance for %s", n.Pos, n.Name)
		}
		vals := map[string]smt.TermID{"result": res}
		for i, name := range inst.spec.Args {
			vals[name] = args[i]
		}
		ictx := &instElab{el: el, inst: inst, vals: vals, onLHS: onLHS}
		for _, e := range inst.spec.Provide {
			t, err := ictx.elabExpr(e)
			if err != nil {
				return smt.NoTerm, err
			}
			if el.b.SortOf(t).Kind != smt.KindBool {
				return smt.NoTerm, fmt.Errorf("%s: provide clause of %s is not boolean", e.Pos, n.Name)
			}
			if onLHS {
				el.pLHS = append(el.pLHS, t)
			} else {
				el.pRHS = append(el.pRHS, t)
			}
		}
		for _, e := range inst.spec.Require {
			t, err := ictx.elabExpr(e)
			if err != nil {
				return smt.NoTerm, err
			}
			if el.b.SortOf(t).Kind != smt.KindBool {
				return smt.NoTerm, fmt.Errorf("%s: require clause of %s is not boolean", e.Pos, n.Name)
			}
			if onLHS {
				el.rLHS = append(el.rLHS, t)
			} else {
				el.rRHS = append(el.rRHS, t)
			}
		}
		return res, nil

	default:
		return smt.NoTerm, fmt.Errorf("%s: unexpected node kind", n.Pos)
	}
}

func (el *elaboration) findInstance(n *isle.TermNode) *specInstance {
	for _, inst := range el.ra.insts {
		if inst.node == n {
			return inst
		}
	}
	return nil
}

// instElab elaborates the annotation expressions of one spec instance.
type instElab struct {
	el    *elaboration
	inst  *specInstance
	vals  map[string]smt.TermID // spec arg/result/existential values
	onLHS bool
}

func (ie *instElab) slot(e *spec.Expr) tvar { return ie.inst.exprSlot[e] }

func (ie *instElab) kindOf(e *spec.Expr) kind {
	return ie.el.ra.ts.kindOf(ie.slot(e))
}

func (ie *instElab) widthOf(e *spec.Expr) (int, error) {
	w, ok := ie.el.a.widthOf(ie.slot(e))
	if !ok {
		return 0, fmt.Errorf("%s: unresolved width in spec for %s", e.Pos, ie.inst.term)
	}
	return w, nil
}

// elabExpr lowers an annotation expression to an SMT term, implementing
// the elaboration column of the Fig. 2 judgements.
func (ie *instElab) elabExpr(e *spec.Expr) (smt.TermID, error) {
	b := ie.el.b

	// Integer-kinded expressions are static after monomorphization.
	if ie.kindOf(e) == kInt || (ie.kindOf(e) == kUnknown && e.Kind == spec.ExprConst && !e.IsBool && e.BitWidth == 0) {
		iv, ok := ie.el.a.evalInt(ie.inst, e)
		if !ok {
			return smt.NoTerm, fmt.Errorf("%s: integer expression in spec for %s is not statically evaluable", e.Pos, ie.inst.term)
		}
		return b.IntConst(iv), nil
	}

	switch e.Kind {
	case spec.ExprVar:
		if t, ok := ie.vals[e.Name]; ok {
			return t, nil
		}
		// Existential annotation variable: one fresh SMT variable per
		// instance (scoped by occurrence index).
		sort, err := ie.el.sortOf(ie.inst.env[e.Name], e.Pos)
		if err != nil {
			return smt.NoTerm, err
		}
		t := ie.el.b.Var(fmt.Sprintf("%s%%%s_%s%d", ie.el.scope, sanitizeName(e.Name), ie.inst.term, ie.inst.seq), sort)
		ie.vals[e.Name] = t
		return t, nil

	case spec.ExprConst:
		switch {
		case e.IsBool:
			return b.BoolConst(e.BoolVal), nil
		default:
			w, err := ie.widthOf(e)
			if err != nil {
				return smt.NoTerm, err
			}
			return b.BVConst(uint64(e.IntVal), w), nil
		}

	case spec.ExprUnop:
		a, err := ie.elabExpr(e.Args[0])
		if err != nil {
			return smt.NoTerm, err
		}
		switch e.Op {
		case "!":
			return b.Not(a), nil
		case "~":
			return b.BVNot(a), nil
		default: // "-"
			return b.BVNeg(a), nil
		}

	case spec.ExprBinop:
		return ie.elabBinop(e)

	case spec.ExprConv:
		return ie.elabConv(e)

	case spec.ExprExtract:
		a, err := ie.elabExpr(e.Args[0])
		if err != nil {
			return smt.NoTerm, err
		}
		return b.Extract(e.Hi, e.Lo, a), nil

	case spec.ExprInt2BV:
		w, err := ie.widthOf(e)
		if err != nil {
			return smt.NoTerm, err
		}
		iv, ok := ie.el.a.evalInt(ie.inst, e.Args[1])
		if !ok {
			return smt.NoTerm, fmt.Errorf("%s: int2bv of non-static integer", e.Pos)
		}
		return b.BVConst(uint64(iv), w), nil

	case spec.ExprConcat:
		out := smt.NoTerm
		for _, arg := range e.Args {
			t, err := ie.elabExpr(arg)
			if err != nil {
				return smt.NoTerm, err
			}
			if out == smt.NoTerm {
				out = t
			} else {
				out = b.Concat(out, t) // earlier args are the high bits
			}
		}
		return out, nil

	case spec.ExprIf:
		c, err := ie.elabExpr(e.Args[0])
		if err != nil {
			return smt.NoTerm, err
		}
		t, err := ie.elabExpr(e.Args[1])
		if err != nil {
			return smt.NoTerm, err
		}
		f, err := ie.elabExpr(e.Args[2])
		if err != nil {
			return smt.NoTerm, err
		}
		return b.Ite(c, t, f), nil

	case spec.ExprSwitch:
		return ie.elabSwitch(e)

	case spec.ExprEnc:
		return ie.elabEnc(e)

	default:
		return smt.NoTerm, fmt.Errorf("%s: unsupported annotation expression", e.Pos)
	}
}

func (ie *instElab) elabBinop(e *spec.Expr) (smt.TermID, error) {
	b := ie.el.b
	a1, err := ie.elabExpr(e.Args[0])
	if err != nil {
		return smt.NoTerm, err
	}
	a2, err := ie.elabExpr(e.Args[1])
	if err != nil {
		return smt.NoTerm, err
	}
	switch e.Op {
	case "=":
		return b.Eq(a1, a2), nil
	case "!=":
		return b.Distinct(a1, a2), nil
	case "<":
		return b.IntLt(a1, a2), nil
	case "<=":
		return b.IntLe(a1, a2), nil
	case ">":
		return b.IntGt(a1, a2), nil
	case ">=":
		return b.IntGe(a1, a2), nil
	case "ult":
		return b.BVUlt(a1, a2), nil
	case "ulte":
		return b.BVUle(a1, a2), nil
	case "ugt":
		return b.BVUgt(a1, a2), nil
	case "ugte":
		return b.BVUge(a1, a2), nil
	case "slt":
		return b.BVSlt(a1, a2), nil
	case "slte":
		return b.BVSle(a1, a2), nil
	case "sgt":
		return b.BVSgt(a1, a2), nil
	case "sgte":
		return b.BVSge(a1, a2), nil
	case "+":
		return b.BVAdd(a1, a2), nil
	case "-":
		return b.BVSub(a1, a2), nil
	case "*":
		return b.BVMul(a1, a2), nil
	case "sdiv":
		return b.BVSDiv(a1, a2), nil
	case "udiv":
		return b.BVUDiv(a1, a2), nil
	case "srem":
		return b.BVSRem(a1, a2), nil
	case "urem":
		return b.BVURem(a1, a2), nil
	case "&":
		if b.SortOf(a1).Kind == smt.KindBool {
			return b.And(a1, a2), nil
		}
		return b.BVAnd(a1, a2), nil
	case "|":
		if b.SortOf(a1).Kind == smt.KindBool {
			return b.Or(a1, a2), nil
		}
		return b.BVOr(a1, a2), nil
	case "xor":
		if b.SortOf(a1).Kind == smt.KindBool {
			return b.XorB(a1, a2), nil
		}
		return b.BVXor(a1, a2), nil
	case "shl":
		return b.BVShl(a1, a2), nil
	case "shr":
		return b.BVLshr(a1, a2), nil
	case "ashr":
		return b.BVAshr(a1, a2), nil
	case "rotl":
		return b.BVRotl(a1, a2), nil
	case "rotr":
		return b.BVRotr(a1, a2), nil
	default:
		return smt.NoTerm, fmt.Errorf("%s: unsupported binary operator %s", e.Pos, e.Op)
	}
}

func (ie *instElab) elabConv(e *spec.Expr) (smt.TermID, error) {
	b := ie.el.b
	target, err := ie.widthOf(e)
	if err != nil {
		return smt.NoTerm, err
	}
	a, err := ie.elabExpr(e.Args[1])
	if err != nil {
		return smt.NoTerm, err
	}
	src := b.SortOf(a).Width
	switch e.Op {
	case "zeroext":
		return b.ZeroExt(target, a), nil
	case "signext":
		return b.SignExt(target, a), nil
	default: // convto, per Fig. 2's three judgements
		switch {
		case target == src:
			return a, nil
		case target < src:
			return b.Extract(target-1, 0, a), nil
		default:
			// Convto-Wide: the high bits are unspecified — a fresh
			// existential variable (Cranelift's register invariant, §3.1.3).
			highSort := smt.BV(target - src)
			high := ie.el.freshVar("convhi_"+ie.inst.term, highSort)
			return b.Concat(high, a), nil
		}
	}
}

func (ie *instElab) elabSwitch(e *spec.Expr) (smt.TermID, error) {
	b := ie.el.b
	scrut, err := ie.elabExpr(e.Args[0])
	if err != nil {
		return smt.NoTerm, err
	}
	n := len(e.Cases)
	// Build the ite chain from the last case (the chain's default) upward,
	// and collect the exhaustiveness condition (Fig. 2 Switch's A set).
	last, err := ie.elabExpr(e.Cases[n-1][1])
	if err != nil {
		return smt.NoTerm, err
	}
	out := last
	var covered []smt.TermID
	mLast, err := ie.elabExpr(e.Cases[n-1][0])
	if err != nil {
		return smt.NoTerm, err
	}
	covered = append(covered, b.Eq(scrut, mLast))
	for i := n - 2; i >= 0; i-- {
		m, err := ie.elabExpr(e.Cases[i][0])
		if err != nil {
			return smt.NoTerm, err
		}
		body, err := ie.elabExpr(e.Cases[i][1])
		if err != nil {
			return smt.NoTerm, err
		}
		cond := b.Eq(scrut, m)
		covered = append(covered, cond)
		out = b.Ite(cond, body, out)
	}
	exhaustive := b.Or(covered...)
	if ie.onLHS {
		ie.el.rLHS = append(ie.el.rLHS, exhaustive)
	} else {
		ie.el.rRHS = append(ie.el.rRHS, exhaustive)
	}
	return out, nil
}

func (ie *instElab) elabEnc(e *spec.Expr) (smt.TermID, error) {
	b := ie.el.b
	switch e.Op {
	case "cls", "clz", "rev", "popcnt":
		a, err := ie.elabExpr(e.Args[0])
		if err != nil {
			return smt.NoTerm, err
		}
		switch e.Op {
		case "cls":
			return b.CLS(a), nil
		case "clz":
			return b.CLZ(a), nil
		case "rev":
			return b.Rev(a), nil
		default:
			return b.Popcnt(a), nil
		}
	case "subs":
		// (subs w a b): the aarch64 NZCV flags of the w-bit subtraction
		// a-b, packed as a 4-bit vector N|Z|C|V (bit 3 = N).
		wv, ok := ie.el.a.evalInt(ie.inst, e.Args[0])
		if !ok {
			return smt.NoTerm, fmt.Errorf("%s: subs width is not static", e.Pos)
		}
		a, err := ie.elabExpr(e.Args[1])
		if err != nil {
			return smt.NoTerm, err
		}
		c, err := ie.elabExpr(e.Args[2])
		if err != nil {
			return smt.NoTerm, err
		}
		full := b.SortOf(a).Width
		w := int(wv)
		if w > full {
			return smt.NoTerm, fmt.Errorf("%s: subs width %d exceeds operand width %d", e.Pos, w, full)
		}
		aw, cw := a, c
		if w < full {
			aw = b.Extract(w-1, 0, a)
			cw = b.Extract(w-1, 0, c)
		}
		diff := b.BVSub(aw, cw)
		zero := b.BVConst(0, w)
		bit := func(cond smt.TermID) smt.TermID {
			return b.Ite(cond, b.BVConst(1, 1), b.BVConst(0, 1))
		}
		nf := bit(b.BVSlt(diff, zero))
		zf := bit(b.Eq(diff, zero))
		cf := bit(b.BVUge(aw, cw)) // carry = no borrow
		sa := b.BVSlt(aw, zero)
		sc := b.BVSlt(cw, zero)
		sd := b.BVSlt(diff, zero)
		vf := bit(b.And(b.XorB(sa, sc), b.XorB(sd, sa)))
		return b.Concat(nf, b.Concat(zf, b.Concat(cf, vf))), nil
	default:
		return smt.NoTerm, fmt.Errorf("%s: unsupported encoding %s", e.Pos, e.Op)
	}
}

// sanitizeName makes an ISLE identifier usable as an SMT variable name.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '$':
			return '_'
		}
		return r
	}, s)
}
