package difftest

import (
	"fmt"

	"crocus/internal/sat"
	"crocus/internal/smt"
)

// PipeConfig is one cell of the pipeline configuration matrix.
// Structural hashing stays on in every cell: it changes the encoding,
// not the pipeline, and has its own fuzz target (FuzzStructHash).
type PipeConfig struct {
	// Session shares one persistent smt.Session across the whole batch
	// (the incremental path core.Verifier uses per rule). False solves
	// each query with a fresh one-shot smt.Check.
	Session    bool
	NoSimplify bool
	NoSolveEqs bool
}

// Name renders the configuration compactly, e.g. "session+simp-eqs".
func (c PipeConfig) Name() string {
	s := "fresh"
	if c.Session {
		s = "session"
	}
	if c.NoSimplify {
		s += "-simp"
	} else {
		s += "+simp"
	}
	if c.NoSolveEqs {
		s += "-eqs"
	} else {
		s += "+eqs"
	}
	return s
}

// smtConfig lowers the cell to a solver configuration.
func (c PipeConfig) smtConfig() smt.Config {
	return smt.Config{NoSimplify: c.NoSimplify, NoSolveEqs: c.NoSolveEqs}
}

// Matrix returns the full 8-cell configuration matrix: {fresh, session}
// × {simplify on/off} × {solveEqs on/off}. Every cell must decide every
// query identically; the passes are claimed to be equivalences, and the
// session's learned state is claimed to be query-independent.
func Matrix() []PipeConfig {
	var out []PipeConfig
	for _, session := range []bool{false, true} {
		for _, nosimp := range []bool{false, true} {
			for _, noeqs := range []bool{false, true} {
				out = append(out, PipeConfig{Session: session, NoSimplify: nosimp, NoSolveEqs: noeqs})
			}
		}
	}
	return out
}

// Disagreement describes one differential failure on one query.
type Disagreement struct {
	QueryIndex int
	Config     PipeConfig
	// What went wrong.
	Reason string
	// The query's assertions (over the batch builder).
	Asserts []smt.TermID
}

func (d *Disagreement) Error() string {
	return fmt.Sprintf("difftest: query %d under %s: %s", d.QueryIndex, d.Config.Name(), d.Reason)
}

// CheckBatch runs every query of the batch through every configuration
// and cross-checks the verdicts:
//
//   - all configurations must agree on Sat/Unsat (Unknown is a failure:
//     the driver sets no budgets or deadlines);
//   - every Sat model must evaluate all assertions to true under the
//     big-integer oracle (after zero-completing eliminated variables);
//   - when the query's variable space is small enough to enumerate,
//     the agreed verdict must match the brute-force ground truth.
//
// The first failure is returned; nil means the whole batch agrees.
func CheckBatch(batch *Batch, configs []PipeConfig) *Disagreement {
	b := batch.B
	// One persistent session per session-configuration, shared across
	// the batch — that is the point: earlier queries' learned clauses,
	// gate caches, and retired activation literals must not leak into
	// later verdicts.
	sessions := map[PipeConfig]*smt.Session{}
	for _, c := range configs {
		if c.Session {
			sessions[c] = smt.NewSession(b)
		}
	}

	for qi, q := range batch.Queries {
		var agreed sat.Status
		var have bool
		for _, c := range configs {
			cfg := c.smtConfig()
			var res smt.Result
			var err error
			if c.Session {
				res, err = sessions[c].Check(q.Asserts, cfg)
			} else {
				res, err = smt.Check(b, q.Asserts, cfg)
			}
			if err != nil {
				return &Disagreement{QueryIndex: qi, Config: c, Reason: "error: " + err.Error(), Asserts: q.Asserts}
			}
			if res.Status == sat.Unknown {
				return &Disagreement{QueryIndex: qi, Config: c, Reason: "unexpected Unknown with no budget", Asserts: q.Asserts}
			}
			if !have {
				agreed, have = res.Status, true
			} else if res.Status != agreed {
				return &Disagreement{
					QueryIndex: qi, Config: c,
					Reason:  fmt.Sprintf("status %v disagrees with earlier %v", res.Status, agreed),
					Asserts: q.Asserts,
				}
			}
			if res.Status == sat.Sat {
				if reason := checkModel(b, q.Asserts, res.Model); reason != "" {
					return &Disagreement{QueryIndex: qi, Config: c, Reason: reason, Asserts: q.Asserts}
				}
			}
		}
		// Ground truth for small variable spaces.
		switch BruteStatus(b, q.Asserts) {
		case BruteSat:
			if agreed != sat.Sat {
				return &Disagreement{QueryIndex: qi, Config: configs[0], Reason: "all configs say Unsat but enumeration found a model", Asserts: q.Asserts}
			}
		case BruteUnsat:
			if agreed != sat.Unsat {
				return &Disagreement{QueryIndex: qi, Config: configs[0], Reason: "all configs say Sat but enumeration exhausted the space", Asserts: q.Asserts}
			}
		}
	}
	return nil
}

// checkModel validates a Sat model against the oracle; it returns a
// non-empty reason on failure.
func checkModel(b *smt.Builder, asserts []smt.TermID, m *smt.Model) string {
	if m == nil {
		return "Sat result carries no model"
	}
	env := ModelEnv(b, asserts, m)
	ok, err := HoldsAll(b, asserts, env)
	if err != nil {
		return "oracle evaluation failed: " + err.Error()
	}
	if !ok {
		return "model does not satisfy the assertions under the oracle:\n" + m.String()
	}
	return ""
}

// CheckQuery runs a single standalone query (fresh builder transplant
// not required — asserts are over b) through the matrix with fresh
// sessions only, used by the shrinker to re-test candidates.
func CheckQuery(b *smt.Builder, asserts []smt.TermID, configs []PipeConfig) *Disagreement {
	batch := &Batch{B: b, Queries: []Query{{Asserts: asserts}}}
	return CheckBatch(batch, configs)
}
