package smt

import (
	"fmt"
	"sort"
	"time"

	"crocus/internal/faultinject"
	"crocus/internal/obs"
	"crocus/internal/sat"
)

// Session is an incremental SMT solving context over one Builder. It
// keeps a single sat.Solver, the Tseitin gate cache, the word encodings,
// and the simplifier memo alive across Check calls, so queries that
// share term structure (a rule's monomorphized instantiations, the
// applicability/equivalence query pair of one unit) re-encode and
// re-decide only what is new.
//
// Each Check guards its assertions behind a fresh activation literal:
// the assertion CNF is added as (¬act ∨ lit) clauses and the query is
// solved under the assumption act. After the call the session retires
// the query with the unit clause ¬act, permanently satisfying its
// guards, while definitional gate clauses and learned clauses — implied
// by the definitions alone — remain valid for later queries.
//
// A Session is not safe for concurrent use; parallel verification gives
// each worker its own session.
type Session struct {
	b       *Builder
	s       *sat.Solver
	bl      *blaster
	simp    *simplifier
	queries int
}

// NewSession creates an incremental session over the builder's terms.
func NewSession(b *Builder) *Session {
	s := sat.New()
	return &Session{b: b, s: s, bl: newBlaster(b, s), simp: newSimplifier(b)}
}

// Queries returns the number of Check calls issued on the session.
func (ss *Session) Queries() int { return ss.queries }

// countNodes returns the number of distinct term nodes reachable from
// roots (the terms-in/terms-out metric of the simplify pass). Only
// called when tracing is enabled.
func countNodes(b *Builder, roots []TermID) int64 {
	seen := map[TermID]bool{}
	var n int64
	var walk func(TermID)
	walk = func(id TermID) {
		if seen[id] {
			return
		}
		seen[id] = true
		n++
		t := b.Term(id)
		for i := 0; i < t.NArg; i++ {
			walk(t.Args[i])
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return n
}

// Check decides the conjunction of the given boolean assertions under
// the session's resource configuration, reusing all encoding and search
// state accumulated by earlier calls. Deadline and budget are applied
// per call. On Sat, the model assigns every free variable appearing in
// the original (pre-simplification) assertions.
//
// When cfg.Ctx carries an obs tracer, Check emits one span per pipeline
// stage (solveEqs, simplify, unit flattening, blast, CDCL solve) and
// feeds the metrics registry; with tracing off the instrumentation is a
// handful of nil checks.
func (ss *Session) Check(assertions []TermID, cfg Config) (Result, error) {
	// Chaos failpoint at the SMT solve entry (covers the one-shot Check
	// too, which funnels here). An injected error propagates as a query
	// error and degrades the unit to OutcomeError via the containment
	// ladder — never a wrong verdict.
	if err := faultinject.Hit("smt.solve"); err != nil {
		return Result{}, err
	}
	start := time.Now()
	b, s := ss.b, ss.s
	s.SetDeadline(cfg.Deadline)
	s.SetBudget(cfg.PropagationBudget)
	s.SetContext(cfg.Ctx)
	ss.bl.noHash = cfg.NoStructHash
	hitsBefore := ss.bl.gc.hits

	sc := obs.Get(cfg.Ctx)
	reg := sc.Registry()
	ss.simp.setRegistry(reg)
	if sc != nil {
		reg.Counter("session.queries").Inc()
		if ss.queries > 0 {
			// This Check reuses encodings and learned clauses added by the
			// session's earlier queries behind retired activation literals.
			reg.Counter("session.reused_queries").Inc()
		}
	}

	// An already-canceled context short-circuits before any encoding work
	// (simplification and blasting are not free on wide units).
	if cfg.Ctx != nil {
		select {
		case <-cfg.Ctx.Done():
			return Result{Status: Unknown, Stop: StopCanceled, Duration: time.Since(start)}, nil
		default:
		}
	}

	// Collect variables from the original assertions: simplification may
	// eliminate some entirely, but the model must still cover them (any
	// model of the simplified query extends to one of the original, since
	// every rewrite is an equivalence over the same free variables).
	vars := map[TermID]bool{}
	for _, a := range assertions {
		if b.SortOf(a).Kind != KindBool {
			return Result{}, fmt.Errorf("smt: assertion is %s, not Bool: %s", b.SortOf(a), b.String(a))
		}
		collectVars(b, a, vars)
	}
	// Blasting order determines SAT variable numbering, which steers the
	// search's tie-breaking: keep it deterministic (and machine-independent
	// under propagation budgets) by ordering on TermID, never map order.
	varList := make([]TermID, 0, len(vars))
	for v := range vars {
		varList = append(varList, v)
	}
	sort.Slice(varList, func(i, j int) bool { return varList[i] < varList[j] })

	// Word-level preprocessing: orient the elaborator's definitional
	// equalities into a substitution, inline them, simplify, and flatten
	// the result into unit assertions. Many equivalence queries collapse
	// here — both sides fold to one hash-consed term, or the negated goal
	// contradicts an asserted side condition — and are decided without
	// building a circuit at all.
	var sol *eqSolution
	var substituted []TermID
	if cfg.NoSolveEqs {
		sol = &eqSolution{b: b, raw: map[TermID]TermID{}, memo: map[TermID]TermID{}}
		substituted = assertions
	} else {
		sp := sc.Start(obs.PhaseSolveEqs)
		sol, substituted = solveEqs(b, assertions)
		sp.SetAttr(obs.Int("solved_vars", int64(len(sol.order))))
		sp.End()
	}

	// The named simplify pass: every substituted assertion is rewritten
	// through the word-level rule table (terms-in/terms-out recorded when
	// tracing).
	simplified := substituted
	if !cfg.NoSimplify {
		sp := sc.Start(obs.PhaseSimplify)
		var termsIn int64
		if sc != nil {
			termsIn = countNodes(b, substituted)
		}
		simplified = make([]TermID, len(substituted))
		for i, a := range substituted {
			simplified[i] = ss.simp.rewrite(a)
		}
		if sc != nil {
			termsOut := countNodes(b, simplified)
			reg.Counter("simplify.terms_in").Add(termsIn)
			reg.Counter("simplify.terms_out").Add(termsOut)
			sp.SetAttr(obs.Int("terms_in", termsIn), obs.Int("terms_out", termsOut))
		}
		sp.End()
	}

	// Flatten conjunctions into unit assertions and run the propositional
	// contradiction check: a pair {u, ¬u} (or a constant false unit)
	// decides the query before any circuit is built.
	spU := sc.Start(obs.PhaseUnits)
	units := make([]TermID, 0, len(simplified))
	var addUnit func(TermID)
	addUnit = func(a TermID) {
		t := b.Term(a)
		if t.Op == OpAnd {
			addUnit(t.Args[0])
			addUnit(t.Args[1])
			return
		}
		if v, ok := b.BoolVal(a); ok && v {
			return
		}
		units = append(units, a)
	}
	for _, a := range simplified {
		addUnit(a)
	}
	unsat := false
	pos := make(map[TermID]bool, len(units))
	for _, u := range units {
		if v, ok := b.BoolVal(u); ok && !v {
			unsat = true
			break
		}
		pos[u] = true
	}
	if !unsat {
		for _, u := range units {
			if t := b.Term(u); t.Op == OpNot && pos[t.Args[0]] {
				unsat = true
				break
			}
		}
	}
	spU.SetAttr(obs.Int("units", int64(len(units))))
	spU.End()
	if unsat {
		ss.queries++
		if sc != nil {
			reg.Counter("session.decided_preblast").Inc()
		}
		return Result{
			Status:     sat.Unsat,
			SATVars:    s.NumVars(),
			SATClauses: s.NumClauses(),
			Duration:   time.Since(start),
		}, nil
	}

	spB := sc.Start(obs.PhaseBlast)
	var varsBefore, clausesBefore int
	if sc != nil {
		varsBefore, clausesBefore = s.NumVars(), s.NumClauses()
	}
	firstNew := sat.Var(s.NumVars())
	act := sat.MkLit(s.NewVar(), false)
	for _, u := range units {
		l, err := ss.bl.blastBool(u)
		if err != nil {
			return Result{}, err
		}
		if !s.AddClause(act.Not(), l) {
			return Result{}, fmt.Errorf("smt: session solver in contradictory state")
		}
	}
	for _, v := range varList {
		if sol.solved(v) {
			// Eliminated by the substitution: no circuit needed, the model
			// value is reconstructed from the definition below.
			continue
		}
		var err error
		if b.SortOf(v).Kind == KindBV {
			_, err = ss.bl.blastBV(v)
		} else {
			_, err = ss.bl.blastBool(v)
		}
		if err != nil {
			return Result{}, err
		}
	}
	if sc != nil {
		newVars := int64(s.NumVars() - varsBefore)
		newClauses := int64(s.NumClauses() - clausesBefore)
		reg.Counter("blast.vars").Add(newVars)
		reg.Counter("blast.clauses").Add(newClauses)
		spB.SetAttr(obs.Int("new_vars", newVars), obs.Int("new_clauses", newClauses))
	}
	spB.End()

	// Steer branching into this query's newly encoded cone: stale activity
	// from earlier queries would otherwise send every restart through
	// retired circuitry first.
	s.PrioritizeVarsFrom(firstNew)

	res := Result{
		SATVars:    s.NumVars(),
		SATClauses: s.NumClauses(),
	}
	spS := sc.Start(obs.PhaseSolve)
	res.Status = s.Solve(act)
	if res.Status == sat.Unknown {
		res.Stop = s.LastStopReason()
	}
	res.Propagations, res.Conflicts, res.Decisions = s.LastStats()
	res.Restarts = s.LastRestarts()
	res.StructHashMerged = ss.bl.gc.hits - hitsBefore
	if sc != nil {
		spS.SetAttr(
			obs.Str("status", res.Status.String()),
			obs.Int("propagations", res.Propagations),
			obs.Int("conflicts", res.Conflicts),
			obs.Int("decisions", res.Decisions),
			obs.Int("restarts", res.Restarts),
		)
		reg.Counter("sat.propagations").Add(res.Propagations)
		reg.Counter("sat.conflicts").Add(res.Conflicts)
		reg.Counter("sat.decisions").Add(res.Decisions)
		reg.Counter("sat.restarts").Add(res.Restarts)
		reg.Counter("structhash.merged").Add(res.StructHashMerged)
		reg.Histogram("sat.query_propagations").Observe(res.Propagations)
	}
	spS.End()
	ss.queries++

	if res.Status == sat.Sat {
		// Read the model before retiring the query: retiring adds a
		// clause, which drops the satisfying trail.
		m := &Model{vals: make(map[string]Value)}
		for _, v := range varList {
			if sol.solved(v) {
				continue
			}
			t := b.Term(v)
			switch t.Sort.Kind {
			case KindBV:
				if u, ok := ss.bl.wordValue(v); ok {
					m.vals[t.Name] = BVValue(u, t.Sort.Width)
				}
			case KindBool:
				if bv, ok := ss.bl.boolValue(v); ok {
					m.vals[t.Name] = BoolValue(bv)
				}
			}
		}
		// Variables eliminated by equality solving get their values back by
		// evaluating their definitions under the model just read.
		sol.extendModel(m)
		res.Model = m
	}
	s.AddClause(act.Not())
	res.Duration = time.Since(start)
	return res, nil
}
