//go:build race

package core_test

// raceDetectorEnabled reports whether this test binary was built with
// -race. The full-corpus differential sweeps are ~10x slower under the
// race detector and blow the default per-package test timeout, so the
// heaviest of them skip; the X64 and midend sweeps still drive the
// concurrent (Parallelism > 1) unit-scheduled path under race.
const raceDetectorEnabled = true
