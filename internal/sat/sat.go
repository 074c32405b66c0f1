// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver over propositional CNF.
//
// It is the decision procedure underneath internal/smt: bitvector
// verification conditions are bit-blasted to CNF and decided here. The
// solver implements the standard modern architecture: two-watched-literal
// propagation, first-UIP conflict analysis with local (one-level) clause
// minimization, exponential VSIDS branching with phase saving, Luby
// restarts, and activity/LBD-driven deletion of learned clauses. Solving
// supports assumptions (for incremental queries) and three resource
// limits: a deterministic per-call propagation budget, a wall-clock
// deadline and context cancellation (verification queries on hard
// multiplier/divider circuits are expected to run out, mirroring the
// paper's §4.1 timeouts).
//
// Clause storage is flat: every clause's literals live back to back in
// one pointer-free arena per solver, addressed by a stable index into
// the clause headers (see clause).
package sat

import (
	"context"
	"errors"
	"time"

	"crocus/internal/faultinject"
)

// Var is a propositional variable index, starting at 0.
type Var int32

// Lit is a literal: variable 2*v encodes v, 2*v+1 encodes ¬v.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// Status is the result of a Solve call.
type Status int

// Solve outcomes.
const (
	Unknown Status = iota // resource limit (deadline or budget) reached
	Sat                   // a satisfying assignment was found
	Unsat                 // the formula is unsatisfiable under the assumptions
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// StopReason explains why a Solve call returned Unknown: which resource
// limit (or external cancellation) interrupted the search. It is
// StopNone after a decided (Sat/Unsat) call.
type StopReason int

// Unknown-result stop reasons.
const (
	StopNone     StopReason = iota
	StopBudget              // propagation budget exhausted
	StopDeadline            // wall-clock deadline passed
	StopCanceled            // the configured context was canceled
)

func (r StopReason) String() string {
	switch r {
	case StopBudget:
		return "budget"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	default:
		return "none"
	}
}

// lbool is a three-valued assignment: 0 undefined, 1 true, 2 false.
type lbool uint8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = 2
)

// clauseRef is a clause's creation index into Solver.clauses. It never
// changes: compaction moves literals, not headers.
type clauseRef int32

const nilReason clauseRef = -1

// clause is a clause header. Its literals are arena[start:start+size];
// the header holds no pointer, so the GC never scans the clause set.
// Deleting a clause sets size to 0 and leaves its literals in the arena
// as garbage until compact.
type clause struct {
	start    int32
	size     int32
	activity float64
	lbd      int32
	learned  bool
	deleted  bool
}

type watcher struct {
	ref     clauseRef
	blocker Lit
}

// Solver is a CDCL SAT solver instance. Zero value is not usable; call New.
type Solver struct {
	clauses []clause
	arena   []Lit       // every clause's literals, in clause order
	garbage int         // arena literals no live clause uses
	watches [][]watcher // indexed by Lit

	vals     []lbool // per literal: value(l) is vals[l]
	level    []int32
	reason   []clauseRef
	trail    []Lit
	trailLim []int32
	qhead    int

	// VSIDS
	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // saved phases: true = last assigned false

	seen     []bool
	seenTmp  []Var
	lbdStamp []int64 // per decision level: the last conflict that counted it
	claInc   float64
	learnts  int
	maxLearn int

	propagations int64
	conflicts    int64
	decisions    int64
	restarts     int64
	budgetProps  int64 // 0 = unlimited
	deadline     time.Time
	hasDeadline  bool
	ctx          context.Context // nil = never canceled
	stop         StopReason      // why the last Solve returned Unknown

	// Counter snapshots taken at the entry of the current/most recent
	// Solve call; LastStats and the propagation budget work on deltas so
	// an incremental session gets a fresh budget per query.
	solveProps    int64
	solveConfl    int64
	solveDecs     int64
	solveRestarts int64

	core []Lit // final conflict of the last assumption-failed Solve

	ok bool // false once UNSAT at level 0

	// Scratch buffers for analyze and AddClause, reused so that search
	// allocates nothing per conflict. newClause copies out of them into
	// the arena.
	learntTmp []Lit
	addTmp    []Lit
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:   1,
		claInc:   1,
		maxLearn: 4000,
		ok:       true,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.vals) / 2 }

// NumClauses returns the number of problem (non-learned) clauses added.
func (s *Solver) NumClauses() int {
	n := 0
	for i := range s.clauses {
		if !s.clauses[i].learned && !s.clauses[i].deleted {
			n++
		}
	}
	return n
}

// Stats reports cumulative propagation/conflict/decision counts across
// the solver's lifetime (all Solve calls).
func (s *Solver) Stats() (propagations, conflicts, decisions int64) {
	return s.propagations, s.conflicts, s.decisions
}

// LastStats reports the counts spent by the most recent Solve call alone
// (all zero before the first call).
func (s *Solver) LastStats() (propagations, conflicts, decisions int64) {
	return s.propagations - s.solveProps, s.conflicts - s.solveConfl, s.decisions - s.solveDecs
}

// Restarts reports the cumulative CDCL restart count across the
// solver's lifetime.
func (s *Solver) Restarts() int64 { return s.restarts }

// LastRestarts reports the restarts taken by the most recent Solve call
// alone (zero before the first call).
func (s *Solver) LastRestarts() int64 { return s.restarts - s.solveRestarts }

// FinalConflict returns the subset of the last Solve call's assumptions
// that the solver found jointly unsatisfiable with the clause set, or nil
// when the last Unsat did not involve the assumptions (root-level
// unsatisfiability) or the last call was not Unsat. The slice is valid
// until the next Solve.
func (s *Solver) FinalConflict() []Lit { return s.core }

// NewVar allocates a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(s.NumVars())
	s.vals = append(s.vals, lUndef, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nilReason)
	s.activity = append(s.activity, 0)
	s.polarity = append(s.polarity, true)
	s.seen = append(s.seen, false)
	s.watches = append(grow(s.watches, 2), nil, nil)
	s.order.insert(v)
	return v
}

// grow returns xs with room for n more elements, doubling its capacity
// when it is full. append grows a large slice about 1.25x at a time, so
// filling it to n elements copies about 4n of them; doubling copies n.
func grow[T any](xs []T, n int) []T {
	if len(xs)+n <= cap(xs) {
		return xs
	}
	ys := make([]T, len(xs), max(2*cap(xs), len(xs)+n, 16))
	copy(ys, xs)
	return ys
}

// value returns the literal's current assignment.
func (s *Solver) value(l Lit) lbool { return s.vals[l] }

// varValue returns the variable's current assignment.
func (s *Solver) varValue(v Var) lbool { return s.vals[MkLit(v, false)] }

// lits returns the clause's literals, an arena slice that is valid until
// the next newClause or compact.
func (s *Solver) lits(c *clause) []Lit {
	return s.arena[c.start : c.start+c.size : c.start+c.size]
}

// SetBudget limits the number of propagations each subsequent Solve call
// may spend (0 means unlimited). The budget applies per call: an
// incremental session issuing many queries gives every query the full
// allowance rather than sharing one cumulative pool.
func (s *Solver) SetBudget(propagations int64) { s.budgetProps = propagations }

// SetDeadline sets a wall-clock deadline for subsequent Solve calls.
// The zero time clears the deadline.
func (s *Solver) SetDeadline(t time.Time) {
	s.deadline = t
	s.hasDeadline = !t.IsZero()
}

// SetContext installs a cancellation context for subsequent Solve calls:
// the search polls it periodically (alongside the deadline check) and
// returns Unknown with StopCanceled once it is done. A nil context
// disables cancellation.
func (s *Solver) SetContext(ctx context.Context) { s.ctx = ctx }

// LastStopReason reports why the most recent Solve call returned
// Unknown (StopNone when it decided the query).
func (s *Solver) LastStopReason() StopReason { return s.stop }

// ErrNoVar is returned by AddClause when a literal references an
// unallocated variable.
var ErrNoVar = errors.New("sat: literal references unallocated variable")

// AddClause adds a problem clause. It returns false if the solver is already
// known to be unsatisfiable at the root level (including via this clause).
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.cancelUntil(0) // drop any model left over from a previous Solve
	for _, l := range lits {
		if int(l.Var()) >= s.NumVars() {
			panic(ErrNoVar)
		}
	}
	// Simplify: drop false/duplicate literals, detect tautologies.
	out := s.addTmp[:0]
	for _, l := range lits {
		switch s.value(l) {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.addTmp = out
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nilReason)
		if s.propagate() != nilReason {
			s.ok = false
			return false
		}
		return true
	}
	s.attachClause(s.newClause(out, false))
	return true
}

// newClause copies lits to the end of the arena under a new header.
func (s *Solver) newClause(lits []Lit, learned bool) clauseRef {
	ref := clauseRef(len(s.clauses))
	start := int32(len(s.arena))
	s.arena = append(grow(s.arena, len(lits)), lits...)
	s.clauses = append(grow(s.clauses, 1), clause{start: start, size: int32(len(lits)), learned: learned})
	if learned {
		s.learnts++
	}
	return ref
}

func (s *Solver) attachClause(ref clauseRef) {
	lits := s.lits(&s.clauses[ref])
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], watcher{ref, lits[1]})
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{ref, lits[0]})
}

func (s *Solver) uncheckedEnqueue(l Lit, from clauseRef) {
	v := l.Var()
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.level[v] = int32(len(s.trailLim))
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause
// or nilReason.
func (s *Solver) propagate() clauseRef {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := &s.clauses[w.ref]
			if c.deleted {
				continue
			}
			lits := s.lits(c)
			// Normalize so that the false literal (p.Not()) is lits[1].
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w.ref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{w.ref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.ref, first}
			j++
			if s.value(first) == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[p] = ws[:j]
				s.qhead = len(s.trail)
				return w.ref
			}
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = ws[:j]
	}
	return nilReason
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= int(s.trailLim[lvl]); i-- {
		l := s.trail[i]
		v := l.Var()
		s.polarity[v] = l.Neg()
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
		s.reason[v] = nilReason
		s.order.insert(v)
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// PrioritizeVarsFrom raises every variable in [from, NumVars) to the top
// of the decision order. Incremental clients call it after encoding a new
// query: branching then stays inside the newest query's cone, and
// variables belonging to earlier, retired queries are only assigned once
// the live cone is already satisfied — instead of being re-decided and
// re-propagated on every restart because of stale activity.
func (s *Solver) PrioritizeVarsFrom(from Var) {
	if int(from) >= len(s.activity) {
		return
	}
	mx := 0.0
	for _, a := range s.activity {
		if a > mx {
			mx = a
		}
	}
	for v := from; int(v) < len(s.activity); v++ {
		s.activity[v] = mx
		s.order.update(v)
	}
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) bumpClause(ref clauseRef) {
	c := &s.clauses[ref]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for i := range s.clauses {
			s.clauses[i].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// analyze performs 1UIP conflict analysis and returns the learned clause
// (with the asserting literal first) and the backjump level.
// The clause lives in a scratch buffer that the next analyze reuses.
func (s *Solver) analyze(confl clauseRef) ([]Lit, int) {
	learnt := append(s.learntTmp[:0], 0) // slot 0 reserved for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		c := &s.clauses[confl]
		if c.learned {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range s.lits(c)[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.seenTmp = append(s.seenTmp, v)
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal from the trail.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		confl = s.reason[p.Var()]
		s.seen[p.Var()] = false
		counter--
		if counter == 0 {
			break
		}
		// Reason normalization: ensure p is lits[0] of its reason.
		lits := s.lits(&s.clauses[confl])
		if lits[0] != p {
			for k := 1; k < len(lits); k++ {
				if lits[k] == p {
					lits[0], lits[k] = lits[k], lits[0]
					break
				}
			}
		}
	}
	learnt[0] = p.Not()

	// Clause minimization: drop literals implied by the rest of the clause.
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			out = append(out, q)
		}
	}
	learnt = out

	// Compute backjump level: max level among learnt[1:].
	bj := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bj = int(s.level[learnt[1].Var()])
	}
	for _, v := range s.seenTmp {
		s.seen[v] = false
	}
	s.seenTmp = s.seenTmp[:0]
	s.learntTmp = learnt
	return learnt, bj
}

// analyzeFinal computes the final conflict for a falsified assumption a:
// the subset of the current assumptions that together force ¬a. It walks
// the trail top-down from the assumption levels, expanding implied
// literals through their reasons and collecting the pseudo-decision
// (assumption) literals that remain. Must run before backtracking.
func (s *Solver) analyzeFinal(a Lit) []Lit {
	out := []Lit{a}
	if s.decisionLevel() == 0 {
		// ¬a is implied at the root: the assumption conflicts on its own.
		return out
	}
	s.seen[a.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if s.reason[v] == nilReason {
			// A pseudo-decision above level 0 is an assumption literal.
			out = append(out, s.trail[i])
		} else {
			for _, l := range s.lits(&s.clauses[s.reason[v]]) {
				if l.Var() != v && s.level[l.Var()] > 0 {
					s.seen[l.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	s.seen[a.Var()] = false
	return out
}

// redundant reports whether literal q in a learned clause is implied by the
// other literals (local self-subsumption: every literal of q's reason is
// already seen or at level 0).
func (s *Solver) redundant(q Lit) bool {
	r := s.reason[q.Var()]
	if r == nilReason {
		return false
	}
	for _, m := range s.lits(&s.clauses[r]) {
		if m.Var() == q.Var() {
			continue
		}
		if !s.seen[m.Var()] && s.level[m.Var()] != 0 {
			return false
		}
	}
	return true
}

// computeLBD counts the distinct decision levels among lits. It runs
// once per conflict, so the distinct levels are stamped with the
// conflict count rather than collected in a set.
func (s *Solver) computeLBD(lits []Lit) int32 {
	n := int32(0)
	for _, l := range lits {
		lv := s.level[l.Var()]
		if int(lv) >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]int64, int(lv)+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lv] != s.conflicts {
			s.lbdStamp[lv] = s.conflicts
			n++
		}
	}
	return n
}

// reduceCand is a learned clause reduceDB may delete, keyed so that
// larger keys go first.
type reduceCand struct {
	ref clauseRef
	key float64
}

func (s *Solver) reduceDB() {
	// Delete roughly half of the learned clauses, preferring high-LBD,
	// low-activity ones. Clauses currently acting as reasons are kept.
	var cands []reduceCand
	for i := range s.clauses {
		c := &s.clauses[i]
		if !c.learned || c.deleted || c.size <= 2 || c.lbd <= 2 {
			continue
		}
		if s.isReason(clauseRef(i)) {
			continue
		}
		cands = append(cands, reduceCand{clauseRef(i), float64(c.lbd)*1e6 - c.activity})
	}
	n := len(cands) / 2
	selectWorst(cands, n)
	for _, c := range cands[:n] {
		s.detachClause(c.ref)
	}
	s.collectGarbage()
}

// selectWorst arranges cands exactly as n steps of a partial selection
// sort do: step i swaps the first maximum of cands[i:] into slot i. Ties
// therefore go to the lowest slot in the arrangement the earlier swaps
// left behind, not in the original order. A tournament tree over the
// slots finds each step's first maximum in O(log len(cands)), where the
// sort's scan takes O(len(cands)).
func selectWorst(cands []reduceCand, n int) {
	leaves := 1
	for leaves < len(cands) {
		leaves *= 2
	}
	// tree[k] is the slot holding the first maximum below node k, or -1
	// when every slot below k is empty or already selected; the leaf for
	// slot i is tree[leaves+i].
	tree := make([]int32, 2*leaves)
	for i := range leaves {
		tree[leaves+i] = -1
		if i < len(cands) {
			tree[leaves+i] = int32(i)
		}
	}
	// first returns the winner of two nodes, a covering the lower slots.
	first := func(a, b int32) int32 {
		if a < 0 || b >= 0 && cands[b].key > cands[a].key {
			return b
		}
		return a
	}
	for k := leaves - 1; k > 0; k-- {
		tree[k] = first(tree[2*k], tree[2*k+1])
	}
	replay := func(i int) {
		for k := (leaves + i) / 2; k > 0; k /= 2 {
			tree[k] = first(tree[2*k], tree[2*k+1])
		}
	}
	for i := 0; i < n; i++ {
		j := int(tree[1])
		cands[i], cands[j] = cands[j], cands[i]
		tree[leaves+i] = -1
		replay(i)
		replay(j)
	}
}

func (s *Solver) isReason(ref clauseRef) bool {
	c := &s.clauses[ref]
	if c.size == 0 {
		return false
	}
	v := s.arena[c.start].Var()
	return s.varValue(v) != lUndef && s.reason[v] == ref
}

func (s *Solver) detachClause(ref clauseRef) {
	c := &s.clauses[ref]
	c.deleted = true
	if c.learned {
		s.learnts--
	}
	s.garbage += int(c.size)
	c.size = 0
}

// collectGarbage compacts the arena once more than half of it is
// garbage. It runs at the end of reduceDB, the only place clauses are
// deleted, so the arena stays within twice the live literals however
// long a solve runs.
func (s *Solver) collectGarbage() {
	if 2*s.garbage > len(s.arena) {
		s.compact()
	}
}

// compact slides the live clauses' literals down over the garbage in
// clause order. Clauses are appended in creation order and never grow,
// so each clause's literals move to a lower address or stay put, and no
// clauseRef changes.
func (s *Solver) compact() {
	n := int32(0)
	for i := range s.clauses {
		c := &s.clauses[i]
		copy(s.arena[n:], s.lits(c))
		c.start = n
		n += c.size
	}
	s.arena = s.arena[:n]
	s.garbage = 0
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		p := int64(1) << uint(k)
		if i == p-1 {
			return p / 2
		}
		if i < p-1 {
			return luby(i - p/2 + 1)
		}
	}
}

// pollInterrupt checks the externally-driven stop conditions: context
// cancellation and the wall-clock deadline. The deterministic
// propagation budget is deliberately NOT checked here — it is only
// consulted at conflict boundaries (outOfBudget) so budget-capped runs
// keep machine-independent, bit-identical verdicts.
func (s *Solver) pollInterrupt() bool {
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			s.stop = StopCanceled
			return true
		default:
		}
	}
	if s.hasDeadline && time.Now().After(s.deadline) {
		s.stop = StopDeadline
		return true
	}
	return false
}

func (s *Solver) outOfBudget() bool {
	if s.budgetProps > 0 && s.propagations-s.solveProps > s.budgetProps {
		s.stop = StopBudget
		return true
	}
	if s.conflicts&63 == 0 && s.pollInterrupt() {
		return true
	}
	return false
}

// Solve searches for a satisfying assignment under the given assumptions.
// On Sat, the model is available via Value until the next Solve/AddClause.
// On Unsat caused by the assumptions, FinalConflict reports which of them
// clashed. Learned clauses are retained between calls, so repeated Solve
// calls over a growing clause set amortize earlier search effort.
func (s *Solver) Solve(assumptions ...Lit) Status {
	// Chaos failpoint at the solve entry. Solve has no error return, so
	// an injected error surfaces as a panic and rides the containment
	// ladder (one retry, then OutcomeError) like any engine fault;
	// delay-kind faults model a slow solver.
	if err := faultinject.Hit("sat.solve"); err != nil {
		panic(err)
	}
	s.core = nil
	s.stop = StopNone
	s.solveProps, s.solveConfl, s.solveDecs = s.propagations, s.conflicts, s.decisions
	s.solveRestarts = s.restarts
	if !s.ok {
		return Unsat
	}
	s.cancelUntil(0)
	if s.pollInterrupt() {
		// Canceled (or already past deadline) before any search work.
		return Unknown
	}

	restartIdx := int64(1)
	conflictBudget := luby(restartIdx) * 128
	conflictsThisRestart := int64(0)

	for {
		confl := s.propagate()
		if confl != nilReason {
			s.conflicts++
			conflictsThisRestart++
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bj := s.analyze(confl)
			s.cancelUntil(bj)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nilReason)
			} else {
				ref := s.newClause(learnt, true)
				s.clauses[ref].lbd = s.computeLBD(learnt)
				s.attachClause(ref)
				s.bumpClause(ref)
				s.uncheckedEnqueue(learnt[0], ref)
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.learnts > s.maxLearn {
				s.reduceDB()
				s.maxLearn += s.maxLearn / 10
			}
			if s.outOfBudget() {
				s.cancelUntil(0)
				return Unknown
			}
			continue
		}

		if conflictsThisRestart >= conflictBudget && s.decisionLevel() > len(assumptions) {
			restartIdx++
			s.restarts++
			conflictBudget = luby(restartIdx) * 128
			conflictsThisRestart = 0
			// Levels up to assumptions retained; re-propagate.
			s.cancelUntil(len(assumptions))
			continue
		}

		// Assumption handling: place assumptions as pseudo-decisions.
		if s.decisionLevel() < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case lTrue:
				// Already satisfied; introduce an empty decision level so
				// decisionLevel tracks the assumption index.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				s.core = s.analyzeFinal(a)
				s.cancelUntil(0)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.uncheckedEnqueue(a, nilReason)
				continue
			}
		}

		// Cheap periodic interrupt poll on the decision path too:
		// conflict-free searches (long satisfying runs) must still notice
		// cancellation and deadlines.
		if s.decisions&1023 == 0 && s.pollInterrupt() {
			s.cancelUntil(0)
			return Unknown
		}

		// Pick a branching variable.
		var next Var = -1
		for !s.order.empty() {
			v := s.order.removeMax()
			if s.varValue(v) == lUndef {
				next = v
				break
			}
		}
		if next == -1 {
			return Sat // all variables assigned
		}
		s.decisions++
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(MkLit(next, s.polarity[next]), nilReason)
	}
}

// Value returns the model value of v after a Sat result. Unassigned
// variables (possible only for variables created after solving) read false.
func (s *Solver) Value(v Var) bool { return s.varValue(v) == lTrue }

// varHeap is an indexed max-heap ordered by activity.
type varHeap struct {
	act  *[]float64
	heap []Var
	pos  []int32 // -1 when absent
}

func newVarHeap(act *[]float64) *varHeap { return &varHeap{act: act} }

func (h *varHeap) less(a, b Var) bool { return (*h.act)[a] > (*h.act)[b] }

func (h *varHeap) empty() bool { return len(h.heap) == 0 }

func (h *varHeap) insert(v Var) {
	for int(v) >= len(h.pos) {
		h.pos = append(h.pos, -1)
	}
	if h.pos[v] != -1 {
		return
	}
	h.pos[v] = int32(len(h.heap))
	h.heap = append(h.heap, v)
	h.siftUp(int(h.pos[v]))
}

func (h *varHeap) update(v Var) {
	if int(v) < len(h.pos) && h.pos[v] != -1 {
		h.siftUp(int(h.pos[v]))
	}
}

func (h *varHeap) removeMax() Var {
	top := h.heap[0]
	last := h.heap[len(h.heap)-1]
	h.heap = h.heap[:len(h.heap)-1]
	h.pos[top] = -1
	if len(h.heap) > 0 {
		h.heap[0] = last
		h.pos[last] = 0
		h.siftDown(0)
	}
	return top
}

func (h *varHeap) siftUp(i int) {
	v := h.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(v, h.heap[p]) {
			break
		}
		h.heap[i] = h.heap[p]
		h.pos[h.heap[i]] = int32(i)
		i = p
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}

func (h *varHeap) siftDown(i int) {
	v := h.heap[i]
	n := len(h.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.less(h.heap[c+1], h.heap[c]) {
			c++
		}
		if !h.less(h.heap[c], v) {
			break
		}
		h.heap[i] = h.heap[c]
		h.pos[h.heap[i]] = int32(i)
		i = c
	}
	h.heap[i] = v
	h.pos[v] = int32(i)
}
