package qp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// batchFamily builds nb solvers over the SAME matrices (diagonal P, an
// identity box prefix plus shared coupling rows) with per-member linear
// terms and shifted box bounds — the wafer column-group shape at
// miniature scale.  All members equilibrate identically because the
// matrices are identical, so the family passes batchCompatible.
func batchFamily(t testing.TB, rng *rand.Rand, n, nb int) ([]*Solver, []*Problem) {
	t.Helper()
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 0.5 + rng.Float64()
	}
	extra := n / 2
	tr := NewTriplet(n+extra, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	for r := 0; r < extra; r++ {
		nz := 2 + rng.Intn(3)
		for k := 0; k < nz; k++ {
			tr.Add(n+r, rng.Intn(n), rng.NormFloat64())
		}
	}
	a := tr.Compile()
	inf := math.Inf(1)

	solvers := make([]*Solver, nb)
	probs := make([]*Problem, nb)
	for q := 0; q < nb; q++ {
		shift := float64(q) * 0.3
		l := make([]float64, n+extra)
		u := make([]float64, n+extra)
		for i := 0; i < n; i++ {
			l[i], u[i] = -5+shift, 5+shift
		}
		for i := n; i < n+extra; i++ {
			l[i], u[i] = -inf, 2+rng.Float64()
		}
		// Build with a zero linear term so every member equilibrates to
		// the same cost scaling, then move q through UpdateLinear — the
		// wafer consensus loop's exact protocol (the penalty target
		// moves every outer iteration, the matrices never do).
		probs[q] = &Problem{P: diagCSRBench(pd), Q: make([]float64, n), A: a.cloneInto(new(CSR)), L: l, U: u}
		s, err := NewSolver(probs[q], DefaultSettings())
		if err != nil {
			t.Fatalf("member %d: %v", q, err)
		}
		for j := range probs[q].Q {
			probs[q].Q[j] = rng.NormFloat64()
		}
		if err := s.UpdateLinear(probs[q].Q); err != nil {
			t.Fatal(err)
		}
		solvers[q] = s
	}
	return solvers, probs
}

// TestSolveBatchLockstep checks the lockstep path end to end: every
// member of a compatible family solves to tolerance, matches a solo
// fresh-solver solve of the same problem to solver accuracy, and a
// second (warm) batch call still works with the family's shared ρ.
func TestSolveBatchLockstep(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	solvers, probs := batchFamily(t, rng, 60, 4)
	if !batchCompatible(solvers) {
		t.Fatal("family unexpectedly incompatible")
	}
	results, err := SolveBatchCtx(context.Background(), solvers)
	if err != nil {
		t.Fatal(err)
	}
	for q, res := range results {
		if res.Status != Solved {
			t.Fatalf("member %d: status %v (iters %d, prim %g, dual %g)",
				q, res.Status, res.Iters, res.PrimRes, res.DualRes)
		}
		if v := probs[q].MaxViolation(res.X); v > 1e-3 {
			t.Errorf("member %d: constraint violation %g", q, v)
		}
		solo, err := NewSolver(probs[q], solvers[q].set)
		if err != nil {
			t.Fatal(err)
		}
		sr := mustSolve(t, solo)
		if sr.Status != Solved {
			t.Fatalf("member %d solo: status %v", q, sr.Status)
		}
		scale := math.Max(math.Abs(sr.Obj), 1)
		if d := math.Abs(res.Obj - sr.Obj); d > 1e-2*scale {
			t.Errorf("member %d: batch obj %g vs solo %g", q, res.Obj, sr.Obj)
		}
	}
	// Warm second call: the family stayed ρ-synced, so it batches again.
	results, err = SolveBatchCtx(context.Background(), solvers)
	if err != nil {
		t.Fatal(err)
	}
	for q, res := range results {
		if res.Status != Solved {
			t.Fatalf("warm member %d: status %v", q, res.Status)
		}
	}
}

// TestSolveBatchFallbackBitIdentity checks the validation gate: a
// family whose members do NOT share bitwise-identical data degrades to
// sequential SolveCtx calls, bit-identical to running the members by
// hand.
func TestSolveBatchFallbackBitIdentity(t *testing.T) {
	build := func() []*Solver {
		rng := rand.New(rand.NewSource(47))
		solvers, _ := batchFamily(t, rng, 50, 3)
		return solvers
	}
	batch := build()
	// Perturb one member's scaled data so validation must fail.
	batch[1].q[0] += 1e-9
	batch[1].p.Val[0] *= 1 + 1e-12
	if batchCompatible(batch) {
		t.Fatal("perturbed family still compatible")
	}
	results, err := SolveBatchCtx(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	seq := build()
	seq[1].q[0] += 1e-9
	seq[1].p.Val[0] *= 1 + 1e-12
	for q, s := range seq {
		sr := mustSolve(t, s)
		for j := range sr.X {
			if math.Float64bits(results[q].X[j]) != math.Float64bits(sr.X[j]) {
				t.Fatalf("member %d: fallback X[%d] differs from sequential", q, j)
			}
		}
		if results[q].Status != sr.Status || results[q].Iters != sr.Iters {
			t.Fatalf("member %d: fallback status/iters differ", q)
		}
	}
}

// TestSolveBatchInfeasibleMember checks per-member freezing: a member
// with contradictory bounds certifies primal infeasibility while its
// siblings continue to convergence in the same lockstep run.
func TestSolveBatchInfeasibleMember(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	solvers, _ := batchFamily(t, rng, 40, 3)
	// Member 1 gets bounds that cannot be met: raise the box to
	// x ≥ 0.3 everywhere, then cap the first coupling row strictly
	// below its minimum over that box.  Bounds do not enter K, so the
	// family stays batch-compatible.
	s := solvers[1]
	l := make([]float64, s.m)
	u := make([]float64, s.m)
	n := s.n
	for i := 0; i < n; i++ {
		l[i], u[i] = 0.3, 5.3 // x ≥ 0.3 on every variable
	}
	inf := math.Inf(1)
	for i := n; i < s.m; i++ {
		l[i], u[i] = -inf, 2+rng.Float64()
	}
	// First coupling row: force its value below what x ≥ 0.3 allows.
	// Row n has only positive or mixed coefficients; compute the row
	// minimum over the box [0.3, 5.3] and demand less.
	lo := 0.0
	for k := s.orig.A.RowPtr[n]; k < s.orig.A.RowPtr[n+1]; k++ {
		v := s.orig.A.Val[k]
		if v > 0 {
			lo += 0.3 * v
		} else {
			lo += 5.3 * v
		}
	}
	u[n] = lo - 1 // strictly unreachable
	if err := s.UpdateBounds(l, u); err != nil {
		t.Fatal(err)
	}
	results, err := SolveBatchCtx(context.Background(), solvers)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Status != PrimalInfeasible {
		t.Errorf("member 1: status %v, want primal-infeasible", results[1].Status)
	}
	for _, q := range []int{0, 2} {
		if results[q].Status != Solved {
			t.Errorf("member %d: status %v, want solved", q, results[q].Status)
		}
	}
}
