package qp

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// gridCutQP builds a QP shaped like the cut engine's (core/cuts.go) on a
// g×g dose grid: a one-entry box row per cell, then two-entry ±1
// smoothness rows to the right, lower and lower-right neighbours, the
// seam rows of a tiled field, and finally `cuts` dense path rows
// Σ s_j x_j ≤ −need with delay sensitivities s_j < 0.  The diagonal
// curvature and positive linear term pull every dose down; the cuts
// push the cells on their paths up.  The box is [lo, lo+10].
func gridCutQP(rng *rand.Rand, g, cuts int, lo, delta, curv float64) *Problem {
	n := g * g
	pd := make([]float64, n)
	q := make([]float64, n)
	for j := range pd {
		pd[j] = curv * (0.2 + rng.Float64())
		q[j] = 0.5 + rng.Float64()
	}
	var l, u []float64
	tr := NewTriplet(n+2*g*(g-1)+(g-1)*(g-1)+2*g+cuts, n)
	row := 0
	add := func(lb, ub float64) int {
		l, u = append(l, lb), append(u, ub)
		row++
		return row - 1
	}
	for j := 0; j < n; j++ {
		tr.Add(add(lo, lo+10), j, 1)
	}
	flat := func(i, j int) int { return i*g + j }
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			a := flat(i, j)
			if j+1 < g {
				r := add(-delta, delta)
				tr.Add(r, a, 1)
				tr.Add(r, flat(i, j+1), -1)
			}
			if i+1 < g {
				r := add(-delta, delta)
				tr.Add(r, a, 1)
				tr.Add(r, flat(i+1, j), -1)
			}
			if i+1 < g && j+1 < g {
				r := add(-delta, delta)
				tr.Add(r, a, 1)
				tr.Add(r, flat(i+1, j+1), -1)
			}
		}
	}
	for i := 0; i < g; i++ {
		r := add(-delta, delta)
		tr.Add(r, flat(i, g-1), 1)
		tr.Add(r, flat(i, 0), -1)
	}
	for j := 0; j < g; j++ {
		r := add(-delta, delta)
		tr.Add(r, flat(g-1, j), 1)
		tr.Add(r, flat(0, j), -1)
	}
	cols, vals, cu := gridCuts(rng, g, cuts)
	for k := range cols {
		r := add(math.Inf(-1), cu[k])
		for i, c := range cols[k] {
			tr.Add(r, c, vals[k][i])
		}
	}
	return &Problem{P: diagCSRBench(pd), Q: q, A: tr.Compile(), L: l, U: u}
}

// gridCuts draws k dense cut rows: each is a random walk over the grid
// whose visited cells carry a negative sensitivity, bounded so that the
// mean dose along the path must reach 0.5–2.5.
func gridCuts(rng *rand.Rand, g, k int) (cols [][]int, vals [][]float64, u []float64) {
	for c := 0; c < k; c++ {
		on := make(map[int]bool)
		i, j := rng.Intn(g), rng.Intn(g)
		for step := 0; step < 2*g; step++ {
			on[i*g+j] = true
			switch rng.Intn(3) {
			case 0:
				i = (i + 1) % g
			case 1:
				j = (j + 1) % g
			default:
				i, j = (i+1)%g, (j+1)%g
			}
		}
		var cc []int
		for cell := range on {
			cc = append(cc, cell)
		}
		slices.Sort(cc)
		vv := make([]float64, len(cc))
		mass := 0.0
		for t := range vv {
			vv[t] = -(0.5 + rng.Float64())
			mass -= vv[t]
		}
		cols, vals = append(cols, cc), append(vals, vv)
		u = append(u, -(0.5+2*rng.Float64())*mass)
	}
	return cols, vals, u
}

// appendGridCuts appends k fresh cut rows to every solver, the same rows
// to each so a family stays batch-compatible.
func appendGridCuts(t *testing.T, rng *rand.Rand, g, k int, solvers ...*Solver) {
	t.Helper()
	cols, vals, u := gridCuts(rng, g, k)
	l := make([]float64, k)
	for i := range l {
		l[i] = math.Inf(-1)
	}
	a := CSRFromRows(g*g, cols, vals)
	for _, s := range solvers {
		if err := s.AppendRows(a, l, u); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGridSolveTrajectoryLock pins the ADMM trajectory on cut-engine
// shaped QPs bit for bit, the way TestSolveTrajectoryLock does for
// random ones: one FNV-64a word over each result's status, iteration
// and restart counts, final ρ and the bits of X and Y.  Its constraint
// matrices open with a one-entry box prefix followed by a run of
// two-entry smoothness and seam rows, so the row-pass fast paths of the
// ADMM iteration are exercised on every solve; dense cut rows follow,
// and more are appended with AppendRows between warm solves.  It
// solves such QPs alone and as a 3-member lockstep family, and requires
// the hashed trajectories to include at least one stall restart and at
// least one adaptive ρ change.
func TestGridSolveTrajectoryLock(t *testing.T) {
	const want = 0xf23d4cc89421355d
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	restarts, rhoMoves := 0, 0
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
		restarts += res.Restarts
		if res.RhoFinal != DefaultSettings().Rho {
			rhoMoves++
		}
	}
	ctx := context.Background()

	// Solo solves: a cold solve, then two rounds of appended cuts.
	for seed, curv := range []float64{1, 0.01, 0.1} {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		g := 7 + seed
		set := DefaultSettings()
		set.EpsAbs, set.EpsRel = 1e-7, 1e-7
		s, err := NewSolver(gridCutQP(rng, g, 3, -5, 0.5+0.2*float64(seed), curv), set)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if round > 0 {
				appendGridCuts(t, rng, g, 2, s)
			}
			res, err := s.SolveCtx(ctx)
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			put(res)
		}
	}

	// A 3-member family: identical matrices, per-member linear terms and
	// shifted boxes (bounds do not enter K), cuts appended to all.
	rng := rand.New(rand.NewSource(7))
	const g = 9
	base := gridCutQP(rng, g, 3, -5, 0.5, 0.01)
	family := make([]*Solver, 3)
	for k := range family {
		prob := *base
		prob.Q = make([]float64, len(base.Q))
		prob.L = slices.Clone(base.L)
		prob.U = slices.Clone(base.U)
		for j := 0; j < g*g; j++ {
			prob.L[j] += 0.4 * float64(k)
			prob.U[j] += 0.4 * float64(k)
		}
		s, err := NewSolver(&prob, DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		for j := range prob.Q {
			prob.Q[j] = base.Q[j] * (1 + 0.3*rng.Float64())
		}
		if err := s.UpdateLinear(prob.Q); err != nil {
			t.Fatal(err)
		}
		family[k] = s
	}
	if !batchCompatible(family) {
		t.Fatal("grid family is not batch-compatible")
	}
	for round := 0; round < 3; round++ {
		if round > 0 {
			appendGridCuts(t, rng, g, 2, family...)
		}
		results, err := SolveBatchCtx(ctx, family)
		if err != nil {
			t.Fatalf("family round %d: %v", round, err)
		}
		for _, res := range results {
			put(res)
		}
	}

	if restarts == 0 {
		t.Error("no solve restarted: the lock no longer covers the stall-restart rule")
	}
	if rhoMoves == 0 {
		t.Error("no solve moved ρ: the lock no longer covers the adaptive-ρ rule")
	}
	if got := h.Sum64(); got != want {
		t.Errorf("trajectory hash %#016x, want %#016x (restarts %d, ρ moves %d)", got, uint64(want), restarts, rhoMoves)
	}
}
