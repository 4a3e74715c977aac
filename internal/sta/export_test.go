package sta

import "testing"

// CheckTopPathsOracle runs checkAgainstOracle on r under golden and
// shifted delays, for the external tests whose designs come from the
// gen package (which imports sta).  It returns how many state caps
// truncated the oracle on a circuit with parallel edges.
func CheckTopPathsOracle(t *testing.T, name string, r *Result, seed int64) int {
	t.Helper()
	return checkAgainstOracle(t, goldenCase(name, r)) + checkAgainstOracle(t, shiftedCase(name+" shifted", r, seed))
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

// TopPathsPops runs the search of r.TopPaths in a fresh scratch and
// returns its gate paths, before the pin-level expansion, with the
// number of states it popped: every state it pushed that is no longer
// on the heap.
func TopPathsPops(r *Result, k, maxStates int) ([]*Path, int) {
	sc := new(pathScratch)
	paths := sc.search(r.In.Circ, r.order, r.ArcDelay, r.StartWeight, r.EndWeight, k, maxStates, NoCutoff)
	return paths, len(sc.f.arena) - len(sc.f.heap)
}

// HeapOracleTopPaths runs the container/heap oracle on r's delays.
func HeapOracleTopPaths(r *Result, k int) []*Path {
	c := goldenCase("", r)
	return topPathsHeapOracle(c.circ, c.order, c.arc, c.start, c.end, k, 0)
}
