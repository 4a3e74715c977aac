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
