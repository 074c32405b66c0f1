package smt

import "crocus/internal/sat"

// Structural hashing for the Tseitin layer: AIG-style node sharing over
// the gates the blaster emits. Every gate constructor first
// constant-folds and strips trivial cones (those cases live in the
// constructors themselves — a folded gate allocates nothing), then
// canonicalizes its operands and consults a per-blaster cache before
// allocating an auxiliary variable. Two syntactically different word
// circuits that decompose into the same gate structure — the common case
// across a rule's applicability/distinctness/equivalence queries, which
// share most of their cones — therefore blast to the SAME literals, and
// the clause and variable counts drop in proportion to the overlap.
//
// Canonical forms:
//
//   - AND is commutative: operands sorted. OR and IMPLIES route through
//     AND by De Morgan, so they share the same table.
//   - XOR/XOR3 are sign-transparent: operand signs are stripped into the
//     result sign (x ⊕ ¬y = ¬(x ⊕ y)), then operands sorted. IFF routes
//     through XOR.
//   - ITE: a negated condition swaps the branches; a negated then-branch
//     is stripped into the result sign (ite(c,¬t,¬e) = ¬ite(c,t,e)).
//   - MAJ is commutative: operands sorted. (MAJ is also self-dual; the
//     sign normalization is deliberately skipped — carry chains feed MAJ
//     mostly-positive literals and the extra canonical step buys
//     nothing measurable.)
//
// The cache lives for the blaster's lifetime, i.e. for a session's
// lifetime: sharing spans queries, which is the point. Gate-defining
// clauses are global (not activation-guarded), so a cache hit in a later
// query reuses both the literal and its semantics.
//
// hashHits counts avoided gate allocations; the session surfaces it as
// the structhash.merged counter. noHash disables lookup AND insertion
// (the -no-structhash escape hatch) without touching the folding logic,
// so both modes emit semantically identical circuits.

// gateCache holds the per-blaster structural-hashing state.
type gateCache struct {
	and  map[[2]sat.Lit]sat.Lit
	xor  map[[2]sat.Lit]sat.Lit
	ite  map[[3]sat.Lit]sat.Lit
	maj  map[[3]sat.Lit]sat.Lit
	xor3 map[[3]sat.Lit]sat.Lit
	hits int64
}

func newGateCache() *gateCache {
	return &gateCache{
		and:  map[[2]sat.Lit]sat.Lit{},
		xor:  map[[2]sat.Lit]sat.Lit{},
		ite:  map[[3]sat.Lit]sat.Lit{},
		maj:  map[[3]sat.Lit]sat.Lit{},
		xor3: map[[3]sat.Lit]sat.Lit{},
	}
}

// key2 canonicalizes a commutative literal pair.
func key2(a, b sat.Lit) [2]sat.Lit {
	if a > b {
		a, b = b, a
	}
	return [2]sat.Lit{a, b}
}

// key3 canonicalizes a commutative literal triple (3-element sort).
func key3(a, b, c sat.Lit) [3]sat.Lit {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]sat.Lit{a, b, c}
}

// stripSigns2 reports the sign-stripped canonical pair plus the parity
// of stripped signs (true = the caller must negate the cached result).
func stripSigns2(a, b sat.Lit) ([2]sat.Lit, bool) {
	neg := a.Neg() != b.Neg()
	a = sat.MkLit(a.Var(), false)
	b = sat.MkLit(b.Var(), false)
	return key2(a, b), neg
}

func stripSigns3(a, b, c sat.Lit) ([3]sat.Lit, bool) {
	neg := a.Neg() != b.Neg() != c.Neg()
	a = sat.MkLit(a.Var(), false)
	b = sat.MkLit(b.Var(), false)
	c = sat.MkLit(c.Var(), false)
	return key3(a, b, c), neg
}
