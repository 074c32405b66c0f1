// Package chaos holds the end-to-end chaos-testing suite for the
// verification stack: sweeps run with the internal/faultinject registry
// armed at the hot seams (solver entry, scheduler, cache appends) and the
// results compared against clean runs.
//
// The invariant under test, everywhere, is the one the fault-injection
// design demands of every armed site:
//
//	An injected fault may surface as an explicit OutcomeError, a
//	retried unit, a shed request, or a dead process — never as a
//	silently wrong verdict, and never as a cache entry a later run
//	replays as something it is not.
//
// Concretely the suite checks three things:
//
//   - Verdict stability: for every (rule, instantiation) unit, a sweep
//     with error/panic/delay faults armed produces either the clean
//     run's outcome or OutcomeError. Decided verdicts never flip.
//   - Cache hygiene: injected errors are never recorded in the result
//     cache, so a fault-armed run cannot poison later clean runs.
//   - Crash-resume: a sweep killed by SIGKILL faults (delivered at the
//     cache append seam, the worst possible moment) resumes from the
//     cache alone in a fresh process and converges to exactly the clean
//     run's verdicts; the completing process replays every unit it
//     found on disk, cached budget timeouts included, with no stale
//     entry and no re-solve. The kill/resume loop re-executes the test
//     binary as a child process, so the kills are real process deaths —
//     no flushes, no deferred handlers.
//
// The CI chaos-smoke job runs the same invariants against the real CLI
// binaries via CROCUS_FAULTS.
package chaos
