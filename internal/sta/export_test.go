package sta

import "testing"

// CheckTopPathsOracle runs checkAgainstOracle on r under golden and
// shifted delays, for the external tests whose designs come from the
// gen package (which imports sta).
func CheckTopPathsOracle(t *testing.T, name string, r *Result, seed int64) {
	t.Helper()
	checkAgainstOracle(t, goldenCase(name, r))
	checkAgainstOracle(t, shiftedCase(name+" shifted", r, seed))
}

// DiffPaths, MaxPooledStates and TimerArenaCap give the external Timer
// path tests the oracle comparison, the pool's cap and the capacity of
// a Timer's search arena (0 before its first search).
var DiffPaths = diffPaths

const MaxPooledStates = maxPooledStates

func TimerArenaCap(t *Timer) int {
	if t.paths == nil {
		return 0
	}
	return cap(t.paths.f.arena)
}
