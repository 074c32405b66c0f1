package sat

// CDCL inprocessing: formula simplification interleaved with search, in
// the SatELite/CaDiCaL tradition. A round runs at decision level 0 — at
// Solve entry or a restart boundary, once enough conflicts have
// accumulated — and applies, in order:
//
//  1. root sweep: clauses satisfied at the root level are removed
//     (retired activation-literal cones die here), root-false literals
//     are stripped;
//  2. clause subsumption and self-subsuming resolution over the problem
//     clauses, signature-filtered and effort-bounded;
//  3. bounded variable elimination (BVE): a variable whose resolvent set
//     is no larger than the clauses it replaces is resolved away, its
//     original clauses pushed onto the extension stack for witness-based
//     model reconstruction;
//  4. a full watch rebuild plus root re-propagation; and
//  5. bounded clause vivification: redundant literals are removed from
//     problem clauses by assuming their negations and propagating.
//
// Incremental safety is the hard part, and it is handled on three
// fronts. Frozen variables (Freeze) are never eliminated — the SMT layer
// freezes activation literals, and the current Solve call's assumption
// variables are frozen for the duration of each round. An eliminated
// variable that later reappears — in a new clause from the blaster's
// persistent gate cache, or as an assumption — is transparently
// *restored*: its original clauses are re-added (cascading through other
// eliminated variables they mention) before the new constraint is
// processed. And on Sat, the model is extended over the eliminated
// variables by replaying the extension stack in reverse, flipping each
// entry's witness literal when its clause is not already satisfied, so
// Value reports correct assignments for every variable ever allocated.
//
// Every bound is a deterministic count (clause visits, propagations),
// never wall clock, so budget-capped runs keep machine-independent
// verdicts.

// InprocessStats counts the work inprocessing has done over the
// solver's lifetime.
type InprocessStats struct {
	// Rounds is the number of inprocessing rounds run.
	Rounds int64
	// ElimVars counts variables removed by bounded variable elimination
	// (restored variables are subtracted back out).
	ElimVars int64
	// Subsumed counts clauses deleted because another clause subsumes
	// them, including clauses satisfied at the root level.
	Subsumed int64
	// Strengthened counts literals removed by self-subsuming resolution
	// and root-false stripping.
	Strengthened int64
	// Vivified counts clauses shortened by vivification.
	Vivified int64
}

// extEntry is one clause pushed onto the extension stack when its
// witness literal's variable was eliminated. Model reconstruction
// replays entries newest-first: if lits is not satisfied by the model
// built so far, the witness literal is flipped to true.
type extEntry struct {
	witness Lit
	lits    []Lit
	active  bool
}

// SetInprocess enables or disables inprocessing for subsequent Solve
// calls. interval is the number of conflicts between rounds: 0 picks the
// default (2000), a negative value runs a round at every opportunity
// (Solve entry and every restart) — a test mode that maximizes coverage
// on small formulas. Structural changes made by earlier rounds persist
// either way; disabling only stops new rounds.
func (s *Solver) SetInprocess(on bool, interval int64) {
	s.inprocOn = on
	s.inprocInterval = interval
}

// InprocessStats reports cumulative inprocessing work.
func (s *Solver) InprocessStats() InprocessStats { return s.inproc }

// Freeze marks a variable as never eliminable by inprocessing. Callers
// must freeze variables they will use in future assumptions or clauses
// whose literals they cache outside the solver; the SMT session freezes
// its activation literals. (Reusing a non-frozen eliminated variable is
// still sound — it is restored on contact — but restoring undoes the
// elimination, so freezing is also the cheaper choice for variables
// known to come back.)
func (s *Solver) Freeze(v Var) { s.frozen[v] = true }

// shouldInprocess reports whether a round is due.
func (s *Solver) shouldInprocess() bool {
	if !s.inprocOn || !s.ok {
		return false
	}
	if s.inprocInterval < 0 {
		return true
	}
	interval := s.inprocInterval
	if interval == 0 {
		interval = defaultInprocInterval
	}
	return s.conflicts-s.lastInprocConfl >= interval
}

const (
	defaultInprocInterval = 2000
	// bveMaxOcc bounds the number of occurrences a BVE candidate may
	// have; denser variables are skipped.
	bveMaxOcc = 16
	// bveMaxResolventLen skips a candidate whose elimination would
	// introduce a clause longer than this.
	bveMaxResolventLen = 24
	// subsumerMaxLen bounds the length of clauses used as subsumers.
	subsumerMaxLen = 8
	// subsumptionSteps bounds total clause-comparison work per round.
	subsumptionSteps = 200_000
	// vivifyMaxClauses bounds clauses vivified per round.
	vivifyMaxClauses = 256
	// vivifyMaxProps bounds propagation work spent vivifying per round.
	vivifyMaxProps = 100_000
)

// inprocess runs one simplification round. Must be called at decision
// level 0 with propagation complete. assumptions are the current Solve
// call's assumption literals, temporarily protected from elimination.
func (s *Solver) inprocess(assumptions []Lit) {
	s.lastInprocConfl = s.conflicts
	s.inproc.Rounds++
	// Every pass may delete or shrink clauses; compact on every way out.
	defer s.collectGarbage()

	// The current assumptions behave like frozen variables for this
	// round: eliminating one would immediately restore it at the next
	// assumption placement.
	unfreeze := make([]Var, 0, len(assumptions))
	for _, a := range assumptions {
		if !s.frozen[a.Var()] {
			s.frozen[a.Var()] = true
			unfreeze = append(unfreeze, a.Var())
		}
	}
	defer func() {
		for _, v := range unfreeze {
			s.frozen[v] = false
		}
	}()

	// Root assignments are permanent facts: their reasons are never
	// dereferenced again (conflict analysis skips level-0 literals), so
	// clear them and let the sweep delete the clauses freely.
	for _, l := range s.trail {
		s.reason[l.Var()] = nilReason
	}

	if !s.sweepRoot() {
		return
	}
	occ := s.buildOcc()
	s.subsume(occ)
	if !s.ok {
		return
	}
	s.eliminate(occ)
	if !s.ok {
		return
	}
	if !s.rebuildWatches() {
		return
	}
	s.vivify()
}

// sweepRoot removes root-satisfied clauses and strips root-false
// literals from the rest (problem and learned alike). Returns false if
// the formula became unsatisfiable.
func (s *Solver) sweepRoot() bool {
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.deleted {
			continue
		}
		lits := s.lits(c)
		sat := false
		for _, l := range lits {
			if s.value(l) == lTrue {
				sat = true
				break
			}
		}
		if sat {
			s.detachClause(clauseRef(i))
			if !c.learned {
				s.inproc.Subsumed++
			}
			continue
		}
		out := lits[:0]
		for _, l := range lits {
			if s.value(l) != lFalse {
				out = append(out, l)
			}
		}
		if len(out) < len(lits) && !c.learned {
			s.inproc.Strengthened += int64(len(lits) - len(out))
		}
		s.shrink(c, len(out))
		switch len(out) {
		case 0:
			s.ok = false
			return false
		case 1:
			u := out[0]
			s.detachClause(clauseRef(i))
			s.uncheckedEnqueue(u, nilReason)
		}
	}
	return true
}

// shrink cuts the clause to its first size literals, freeing the rest.
func (s *Solver) shrink(c *clause, size int) {
	s.garbage += int(c.size) - size
	c.size = int32(size)
}

// buildOcc constructs occurrence lists over the live problem clauses.
func (s *Solver) buildOcc() [][]clauseRef {
	occ := make([][]clauseRef, len(s.vals))
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.deleted || c.learned {
			continue
		}
		for _, l := range s.lits(c) {
			occ[l] = append(occ[l], clauseRef(i))
		}
	}
	return occ
}

// clauseSig computes a 64-bit variable signature for fast subsumption
// filtering: C ⊆ D implies sig(C) &^ sig(D) == 0.
func clauseSig(lits []Lit) uint64 {
	var sig uint64
	for _, l := range lits {
		sig |= 1 << (uint(l.Var()) & 63)
	}
	return sig
}

// subsume runs backward subsumption and self-subsuming resolution: every
// short problem clause C is checked against the clauses sharing its
// least-occurring literal (in both phases). D ⊇ C is deleted; D ⊇
// (C \ {l}) ∪ {¬l} loses ¬l.
func (s *Solver) subsume(occ [][]clauseRef) {
	sigs := make(map[clauseRef]uint64)
	for i := range s.clauses {
		c := &s.clauses[i]
		if !c.deleted && !c.learned {
			sigs[clauseRef(i)] = clauseSig(s.lits(c))
		}
	}
	// stamp marks the literals of the current subsumer.
	stamp := make([]int32, len(s.vals))
	round := int32(0)
	steps := 0

	for i := range s.clauses {
		if steps > subsumptionSteps {
			break
		}
		cref := clauseRef(i)
		c := &s.clauses[i]
		if c.deleted || c.learned || c.size > subsumerMaxLen || c.size < 2 {
			continue
		}
		// Least-occurring literal keeps candidate lists short.
		lits := s.lits(c)
		min := lits[0]
		for _, l := range lits[1:] {
			if len(occ[l]) < len(occ[min]) {
				min = l
			}
		}
		round++
		for _, l := range lits {
			stamp[l] = round
		}
		csig := sigs[cref]
		for _, cand := range [][]clauseRef{occ[min], occ[min.Not()]} {
			for _, dref := range cand {
				if dref == cref {
					continue
				}
				d := &s.clauses[dref]
				if d.deleted || d.size < c.size {
					continue
				}
				if csig&^sigs[dref] != 0 {
					continue
				}
				steps += int(d.size)
				// Count c's literals inside d, allowing one flip.
				matched := 0
				flips := 0
				var flip Lit
				for _, dl := range s.lits(d) {
					if stamp[dl] == round {
						matched++
					} else if stamp[dl.Not()] == round {
						flips++
						flip = dl
					}
				}
				if matched+flips < len(lits) || flips > 1 {
					continue
				}
				if flips == 0 {
					// C ⊆ D: delete D.
					s.detachClause(dref)
					delete(sigs, dref)
					s.inproc.Subsumed++
					continue
				}
				// Self-subsuming resolution: remove flip from D.
				if !s.strengthen(dref, flip, sigs) {
					return
				}
			}
		}
	}
}

// strengthen removes lit from the clause, handling the unit/empty cases
// at the root. Returns false if the formula became unsatisfiable.
func (s *Solver) strengthen(ref clauseRef, lit Lit, sigs map[clauseRef]uint64) bool {
	c := &s.clauses[ref]
	out := s.lits(c)[:0]
	for _, l := range s.lits(c) {
		if l != lit {
			out = append(out, l)
		}
	}
	s.shrink(c, len(out))
	s.inproc.Strengthened++
	sigs[ref] = clauseSig(out)
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		u := out[0]
		s.detachClause(ref)
		delete(sigs, ref)
		switch s.value(u) {
		case lFalse:
			s.ok = false
			return false
		case lUndef:
			s.uncheckedEnqueue(u, nilReason)
		}
	}
	return true
}

// eliminate runs bounded variable elimination over the occurrence lists.
func (s *Solver) eliminate(occ [][]clauseRef) {
	type cand struct {
		v   Var
		occ int
	}
	var cands []cand
	for v := Var(0); int(v) < s.NumVars(); v++ {
		if s.frozen[v] || s.eliminated[v] || s.varValue(v) != lUndef {
			continue
		}
		pos := s.liveOcc(occ, MkLit(v, false), v)
		neg := s.liveOcc(occ, MkLit(v, true), v)
		n := len(pos) + len(neg)
		if n == 0 || n > bveMaxOcc {
			continue
		}
		cands = append(cands, cand{v, n})
	}
	// Sparsest first: cheap eliminations free up occurrence lists for
	// later candidates. Stable order keeps rounds deterministic.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].occ < cands[j-1].occ || (cands[j].occ == cands[j-1].occ && cands[j].v < cands[j-1].v)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}

	seen := make([]int32, len(s.vals))
	round := int32(0)

	for _, cd := range cands {
		v := cd.v
		if s.varValue(v) != lUndef {
			continue // a unit from an earlier elimination reached v
		}
		pos := s.liveOcc(occ, MkLit(v, false), v)
		neg := s.liveOcc(occ, MkLit(v, true), v)
		n := len(pos) + len(neg)
		if n == 0 || n > bveMaxOcc {
			continue
		}

		// Trial resolution: count the non-tautological resolvents.
		var resolvents [][]Lit
		ok := true
	trial:
		for _, pr := range pos {
			for _, nr := range neg {
				round++
				r := s.resolve(pr, nr, v, seen, round)
				if r == nil {
					continue // tautology
				}
				if len(r) > bveMaxResolventLen {
					ok = false
					break trial
				}
				resolvents = append(resolvents, r)
				if len(resolvents) > n {
					ok = false
					break trial
				}
			}
		}
		if !ok {
			continue
		}

		// Commit: push originals onto the extension stack, delete them,
		// add the resolvents.
		for _, refs := range [][]clauseRef{pos, neg} {
			for _, ref := range refs {
				lits := s.lits(&s.clauses[ref])
				var wit Lit
				for _, l := range lits {
					if l.Var() == v {
						wit = l
						break
					}
				}
				s.extStack = append(s.extStack, extEntry{
					witness: wit,
					lits:    append([]Lit(nil), lits...),
					active:  true,
				})
				s.extIdx[v] = append(s.extIdx[v], len(s.extStack)-1)
				s.detachClause(ref)
			}
		}
		for _, r := range resolvents {
			switch len(r) {
			case 0:
				s.ok = false
				return
			case 1:
				switch s.value(r[0]) {
				case lFalse:
					s.ok = false
					return
				case lUndef:
					s.uncheckedEnqueue(r[0], nilReason)
				}
			default:
				ref := s.newClause(r, false)
				for _, l := range r {
					occ[l] = append(occ[l], ref)
				}
			}
		}
		s.eliminated[v] = true
		s.inproc.ElimVars++
	}
}

// liveOcc filters an occurrence list down to live problem clauses that
// still contain the variable (strengthening and deletion leave stale
// entries behind).
func (s *Solver) liveOcc(occ [][]clauseRef, l Lit, v Var) []clauseRef {
	out := occ[l][:0:0]
	for _, ref := range occ[l] {
		c := &s.clauses[ref]
		if c.deleted || c.learned {
			continue
		}
		has := false
		for _, cl := range s.lits(c) {
			if cl == l {
				has = true
				break
			}
		}
		if has {
			out = append(out, ref)
		}
	}
	return out
}

// resolve computes the resolvent of two clauses on v, or nil if it is a
// tautology. seen/round implement stamp-based duplicate removal.
func (s *Solver) resolve(pr, nr clauseRef, v Var, seen []int32, round int32) []Lit {
	var out []Lit
	for _, l := range s.lits(&s.clauses[pr]) {
		if l.Var() == v {
			continue
		}
		if seen[l] != round {
			seen[l] = round
			out = append(out, l)
		}
	}
	for _, l := range s.lits(&s.clauses[nr]) {
		if l.Var() == v {
			continue
		}
		if seen[l.Not()] == round {
			return nil // tautology
		}
		if seen[l] != round {
			seen[l] = round
			out = append(out, l)
		}
	}
	return out
}

// restore re-introduces an eliminated variable: its original clauses
// come back off the extension stack (cascading through any other
// eliminated variables they mention) and the variable becomes decidable
// again. Called from AddClause and Solve when an eliminated variable
// reappears; must run at decision level 0.
func (s *Solver) restore(v Var) {
	if !s.eliminated[v] {
		return
	}
	s.eliminated[v] = false
	s.inproc.ElimVars--
	s.order.insert(v)
	idxs := s.extIdx[v]
	delete(s.extIdx, v)
	for _, i := range idxs {
		e := &s.extStack[i]
		if !e.active {
			continue
		}
		e.active = false
		// Cascade: the stored clause may mention variables eliminated
		// since (or before); they must come back too, or the clause
		// would constrain ghosts.
		for _, l := range e.lits {
			if s.eliminated[l.Var()] {
				s.restore(l.Var())
			}
		}
		s.addRestoredClause(e.lits)
		if !s.ok {
			return
		}
	}
}

// addRestoredClause re-adds a stored original clause, handling root
// simplification (the root state may have grown since elimination).
func (s *Solver) addRestoredClause(lits []Lit) {
	out := s.restoreTmp[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return // already satisfied at root
		case lFalse:
			continue
		}
		out = append(out, l)
	}
	s.restoreTmp = out
	switch len(out) {
	case 0:
		s.ok = false
	case 1:
		s.uncheckedEnqueue(out[0], nilReason)
		if s.propagate() != nilReason {
			s.ok = false
		}
	default:
		s.attachClause(s.newClause(out, false))
	}
}

// rebuildWatches reconstructs every watch list from scratch and
// re-propagates the root level. Sweeping, strengthening, and BVE leave
// the incremental watch structures behind; one O(formula) rebuild at
// this cadence is simpler and cheaper than surgical maintenance.
// Returns false if root propagation derives a contradiction.
func (s *Solver) rebuildWatches() bool {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.deleted {
			continue
		}
		// Post-sweep every live clause has >= 2 non-false literals; a
		// learned clause shortened to 1 by the sweep was detached there.
		s.attachClause(clauseRef(i))
	}
	s.qhead = 0
	if s.propagate() != nilReason {
		s.ok = false
		return false
	}
	return true
}

// vivify shortens problem clauses by assuming the negation of each
// literal in turn and propagating: a conflict or an implied literal
// proves a shorter clause. Effort is bounded by clause and propagation
// counts; the cursor persists across rounds so successive rounds cover
// different clauses.
func (s *Solver) vivify() {
	if len(s.clauses) == 0 {
		return
	}
	propsStart := s.propagations
	visited := 0
	n := len(s.clauses)
	for step := 0; step < n; step++ {
		if visited >= vivifyMaxClauses || s.propagations-propsStart > vivifyMaxProps {
			break
		}
		i := int(s.vivCursor % int64(n))
		s.vivCursor++
		c := &s.clauses[i]
		if c.deleted || c.learned || c.size < 3 || c.size > bveMaxResolventLen {
			continue
		}
		visited++

		// The clause must not propagate against itself while its own
		// literals are probed, and propagate garbage-collects watchers
		// of deleted clauses, so the only safe way to take it out of
		// play is a full eager detach. It is re-added afterwards —
		// shortened or verbatim — through the root-aware add path.
		lits := append([]Lit(nil), s.lits(c)...)
		s.detachClauseWatched(clauseRef(i))
		newLits := make([]Lit, 0, len(lits))
		shortened := false
		for _, l := range lits {
			switch s.value(l) {
			case lTrue:
				// Prefix assumptions imply l: C is equivalent to
				// newLits ∪ {l}.
				newLits = append(newLits, l)
				shortened = len(newLits) < len(lits)
				goto done
			case lFalse:
				// ¬l already implied by the prefix: drop l.
				shortened = true
				continue
			}
			s.trailLim = append(s.trailLim, int32(len(s.trail)))
			s.uncheckedEnqueue(l.Not(), nilReason)
			if s.propagate() != nilReason {
				// Prefix ∧ ¬l is contradictory: C shrinks to
				// newLits ∪ {l}.
				newLits = append(newLits, l)
				shortened = len(newLits) < len(lits)
				goto done
			}
			newLits = append(newLits, l)
		}
	done:
		s.cancelUntil(0)
		if shortened && len(newLits) < len(lits) {
			s.inproc.Vivified++
			s.addRestoredClause(newLits)
		} else {
			s.addRestoredClause(lits)
		}
		if !s.ok {
			return
		}
	}
}

// detachClauseWatched removes a clause from its two watch lists eagerly
// (unlike detachClause's lazy deletion) — vivification replaces live,
// attached clauses, and leaving stale watchers would make the lazy
// c.deleted checks load-bearing for the rest of the solver's life.
func (s *Solver) detachClauseWatched(ref clauseRef) {
	lits := s.lits(&s.clauses[ref])
	for _, wl := range []Lit{lits[0].Not(), lits[1].Not()} {
		ws := s.watches[wl]
		for i := range ws {
			if ws[i].ref == ref {
				ws[i] = ws[len(ws)-1]
				s.watches[wl] = ws[:len(ws)-1]
				break
			}
		}
	}
	s.detachClause(ref)
}

// reconstructModel extends a satisfying assignment over the eliminated
// variables: the extension stack is replayed newest-first, and any entry
// whose clause the model does not satisfy has its witness literal
// flipped to true (Järvisalo–Biere witness reconstruction). The result
// lives in s.model, which Value prefers over the trail.
func (s *Solver) reconstructModel() {
	// Totalize first: Value reads unassigned as false, and the replay's
	// satisfaction checks must agree with that final reading — an undef
	// literal treated as "unsatisfied" here but "false, hence ¬l true"
	// later would trigger spurious witness flips that break entries
	// already processed.
	s.model = s.model[:0]
	for v := Var(0); int(v) < s.NumVars(); v++ {
		a := s.varValue(v)
		if a == lUndef {
			a = lFalse
		}
		s.model = append(s.model, a)
	}
	for i := len(s.extStack) - 1; i >= 0; i-- {
		e := &s.extStack[i]
		if !e.active {
			continue
		}
		sat := false
		for _, l := range e.lits {
			if s.modelValue(l) == lTrue {
				sat = true
				break
			}
		}
		if !sat {
			v := e.witness.Var()
			if e.witness.Neg() {
				s.model[v] = lFalse
			} else {
				s.model[v] = lTrue
			}
		}
	}
}

func (s *Solver) modelValue(l Lit) lbool {
	a := s.model[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		return a ^ 3
	}
	return a
}
