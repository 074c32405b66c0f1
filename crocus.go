// Package crocus is the public API of crocus-go, a from-scratch Go
// reproduction of "Lightweight, Modular Verification for
// WebAssembly-to-Native Instruction Selection" (ASPLOS 2024).
//
// The package re-exports the system's building blocks so downstream users
// can verify their own ISLE rule files:
//
//	prog, err := crocus.ParseProgram(map[string]string{
//	    "rules.isle": src,
//	})
//	v := crocus.NewVerifier(prog, crocus.Options{Timeout: 5 * time.Second})
//	results, err := v.VerifyAll()
//
// The annotated rule corpus of the paper's evaluation is available via
// LoadAarch64Corpus and friends, and the concrete interpreter mode (§3.3)
// via NewRunner.
package crocus

import (
	"fmt"

	"crocus/internal/core"
	"crocus/internal/corpus"
	"crocus/internal/interp"
	"crocus/internal/isle"
	"crocus/internal/smt"
	"crocus/internal/vcache"
)

// Re-exported core types: the verifier, its configuration, and its
// results. See the internal/core documentation for details.
type (
	// Program is a parsed and typechecked collection of ISLE rules,
	// declarations, models, and annotations.
	Program = isle.Program
	// Verifier verifies lowering rules against their annotations.
	Verifier = core.Verifier
	// Options configures verification (timeouts, distinct-models check,
	// custom verification conditions).
	Options = core.Options
	// Outcome classifies a verification attempt.
	Outcome = core.Outcome
	// RuleResult aggregates the per-instantiation outcomes of one rule.
	RuleResult = core.RuleResult
	// InstOutcome is the outcome for one (rule, type instantiation) pair.
	InstOutcome = core.InstOutcome
	// Counterexample is a failing model lifted back to ISLE syntax.
	Counterexample = core.Counterexample
	// CustomVC supplies a custom verification condition (§3.2.2).
	CustomVC = core.CustomVC
	// VCContext gives custom conditions access to the elaborated rule.
	VCContext = core.VCContext
	// TermID identifies an SMT term in a VCContext's builder (the type
	// custom verification conditions construct and return).
	TermID = smt.TermID
	// Bug describes one reproduced defect from the paper's evaluation.
	Bug = corpus.Bug
	// Runner executes rules on concrete inputs (interpreter mode, §3.3).
	Runner = interp.Runner
	// Case is one concrete interpreter test vector.
	Case = interp.Case
	// SolverStats are cumulative SAT statistics for a verification unit.
	SolverStats = core.SolverStats
	// HardnessProfile ranks a sweep's rules by verification cost
	// (-profile-rules); RuleHardness is one rule's aggregate row.
	HardnessProfile = core.HardnessProfile
	RuleHardness    = core.RuleHardness
	// PanicError is the diagnostics bundle carried by OutcomeError results
	// when a panic in the solve pipeline was contained.
	PanicError = core.PanicError
	// Cache is the incremental-verification result store: set an opened
	// one (OpenCache) as Options.Cache, and Close it when done.
	Cache = vcache.Cache
	// CacheStats are the cache's per-run probe counters (hits, misses,
	// stale timeouts, solve time saved), returned by Cache.Stats.
	CacheStats = vcache.Stats
)

// Verification outcomes.
const (
	OutcomeSuccess      = core.OutcomeSuccess
	OutcomeInapplicable = core.OutcomeInapplicable
	OutcomeFailure      = core.OutcomeFailure
	OutcomeTimeout      = core.OutcomeTimeout
	OutcomeError        = core.OutcomeError
)

// ParseProgram parses and typechecks a set of ISLE source files (file
// name -> contents). Files are processed in sorted-stable map iteration
// order is NOT guaranteed, so multi-file programs with ordering
// constraints should be concatenated by the caller or passed through
// ParseFiles.
func ParseProgram(files map[string]string) (*Program, error) {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	// Deterministic order.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	p := isle.NewProgram()
	for _, n := range names {
		if err := p.ParseFile(n, files[n]); err != nil {
			return nil, err
		}
	}
	if err := p.Typecheck(); err != nil {
		return nil, err
	}
	return p, nil
}

// ParseFiles parses ISLE sources in the given order.
func ParseFiles(names []string, srcs []string) (*Program, error) {
	p := isle.NewProgram()
	for i, n := range names {
		if err := p.ParseFile(n, srcs[i]); err != nil {
			return nil, err
		}
	}
	if err := p.Typecheck(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewVerifier builds a verifier over a typechecked program.
func NewVerifier(prog *Program, opts Options) *Verifier { return core.New(prog, opts) }

// OpenCache opens (or creates) the persistent result cache under dir.
// Each unit's result is on disk as soon as the unit finishes, so a rerun
// over the same directory replays what an earlier, even killed, run
// finished.
func OpenCache(dir string) (*Cache, error) { return vcache.Open(dir) }

// ProfileRules folds a sweep's rule results into a ranked hardness
// profile (timeout rules first, then by wall time) naming the rules
// that buy the timeout tail.
func ProfileRules(results []*RuleResult) *HardnessProfile { return core.ProfileRules(results) }

// NewRunner builds a concrete-execution runner (interpreter mode).
func NewRunner(prog *Program) *Runner { return interp.New(prog) }

// LoadAarch64Corpus loads the paper's Table-1 corpus: 96 annotated
// aarch64 lowering rules covering WebAssembly 1.0 integer operations.
func LoadAarch64Corpus() (*Program, error) { return corpus.LoadAarch64() }

// LoadX64Corpus loads the (patched) x86-64 addressing-mode rules.
func LoadX64Corpus() (*Program, error) { return corpus.LoadX64() }

// LoadMidendCorpus loads the mid-end rewrite rules (§4.4.4's fixed rule).
func LoadMidendCorpus() (*Program, error) { return corpus.LoadMidend() }

// CorpusSource returns the text of an embedded corpus file (for example
// "prelude.isle" or "bugs/cls_bug.isle").
func CorpusSource(path string) (string, error) { return corpus.Source(path) }

// Bugs lists the §4.3/§4.4 defects the corpus reproduces.
func Bugs() []Bug { return corpus.Bugs() }

// LoadBugCorpus loads the program reproducing one defect.
func LoadBugCorpus(b Bug) (*Program, error) { return corpus.LoadBug(b) }

// LoadBugCorpusByID is LoadBugCorpus keyed by the bug's short slug
// (e.g. "amode_cve", "cls_bug").
func LoadBugCorpusByID(id string) (*Program, error) {
	for _, b := range corpus.Bugs() {
		if b.ID == id {
			return corpus.LoadBug(b)
		}
	}
	return nil, fmt.Errorf("crocus: unknown bug %q", id)
}

// CorpusCustomVCs returns the custom verification conditions the corpus's
// flag-rewriting rules need (Table 1's failure rows).
func CorpusCustomVCs() map[string]*CustomVC { return corpus.CustomVCs() }

// OverlapResult re-exports the multi-rule overlap analysis result (the
// rule-priority reasoning of the paper's §6 future work).
type OverlapResult = core.OverlapResult

// Overlap classifications.
const (
	OverlapNone        = core.OverlapNone
	OverlapPrioritized = core.OverlapPrioritized
	OverlapAmbiguous   = core.OverlapAmbiguous
	OverlapUnknown     = core.OverlapUnknown
)
