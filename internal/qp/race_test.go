//go:build race

package qp

// raceEnabled reports a race-detector build, whose instrumentation
// allocates, so allocation counts are not meaningful.
const raceEnabled = true
