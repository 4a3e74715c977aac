package qp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// TestSolveTrajectoryLock pins the ADMM trajectory bit for bit: one
// FNV-64a word over each result's status, iteration and restart counts,
// final ρ and the bits of X and Y.  It covers three sets of solves:
//   - the 24 strictly convex instances of TestSolveKKTProperty at tight
//     tolerance, which walk the adaptive-ρ ladder;
//   - the same instances with P = nil under DefaultSettings, LPs that
//     stall, so the stall-restart rule is inside the hash;
//   - the 4-member lockstep family of TestSolveBatchLockstep.
//
// A refactor of the solve loop that moves any of these by one ulp, one
// iteration or one restart changes the hash.
func TestSolveTrajectoryLock(t *testing.T) {
	const want = 0x66852c30f82b16ae
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put := func(res *Result) {
		w64(uint64(res.Status))
		w64(uint64(res.Iters))
		w64(uint64(res.Restarts))
		w64(math.Float64bits(res.RhoFinal))
		for _, v := range res.X {
			w64(math.Float64bits(v))
		}
		for _, v := range res.Y {
			w64(math.Float64bits(v))
		}
	}

	for seed := int64(0); seed < 24; seed++ {
		res, err := solveOnce(randomFeasibleQP(rand.New(rand.NewSource(seed))), tightSettings())
		if err != nil {
			t.Fatalf("QP seed %d: %v", seed, err)
		}
		put(res)
	}
	restarts := 0
	for seed := int64(0); seed < 24; seed++ {
		prob := randomFeasibleQP(rand.New(rand.NewSource(seed)))
		prob.P = nil
		res, err := solveOnce(prob, DefaultSettings())
		if err != nil {
			t.Fatalf("LP seed %d: %v", seed, err)
		}
		put(res)
		restarts += res.Restarts
	}
	if restarts == 0 {
		t.Fatal("no LP solve restarted: the lock no longer covers the stall-restart rule")
	}
	solvers, _ := batchFamily(t, rand.New(rand.NewSource(41)), 60, 4)
	results, err := SolveBatchCtx(context.Background(), solvers)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		put(res)
	}

	if got := h.Sum64(); got != want {
		t.Errorf("trajectory hash %#016x, want %#016x (LP restarts %d)", got, uint64(want), restarts)
	}
}
