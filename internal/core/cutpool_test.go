package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/qp"
	"repro/internal/sta"
)

// cutPoolProblem runs one cut-generation QP on a scaled AES-65 instance
// and assembles the resulting problem — box and smoothness prefix plus
// every path cut the solve generated.  This is the real matrix the
// x-step factors: a banded grid Laplacian with short dense-ish cut rows
// appended.
func cutPoolProblem(tb testing.TB) *qp.Problem {
	tb.Helper()
	d, err := gen.Generate(gen.AES65().Scaled(0.04))
	if err != nil {
		tb.Fatal(err)
	}
	golden, err := GoldenNominal(d, sta.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	model, err := FitModel(golden, false)
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultOptions()
	cs, err := newCutSolver(golden, model, opt)
	if err != nil {
		tb.Fatal(err)
	}
	tau := 0.99 * golden.MCT
	if _, feasible, err := cs.solveTau(context.Background(), tau, math.Inf(1)); err != nil || !feasible {
		tb.Fatalf("cut solve: feasible=%v err=%v", feasible, err)
	}
	if cs.pool.size() == 0 {
		tb.Fatal("cut solve generated no cuts; instance too easy to exercise the pool")
	}
	// Grid cells with no gates carry zero curvature and zero cost, so
	// the optimizer leaves them anywhere inside the smoothness polytope.
	// A ridge six orders below the real curvature makes the optimum
	// unique without perturbing the meaningful coordinates.
	reg := 0.0
	for _, v := range cs.pd {
		if v > reg {
			reg = v
		}
	}
	reg *= 1e-6
	for j := range cs.pd {
		if cs.pd[j] == 0 {
			cs.pd[j] = reg
		}
	}
	return cs.buildProblem(tau, cs.pool.snapshot())
}

// TestCutPoolSolveKKT solves the AES-derived cut-pool instance at tight
// tolerance and checks the first-order certificate: status Solved,
// constraint violation and KKT stationarity both ≤ 1e-6.
func TestCutPoolSolveKKT(t *testing.T) {
	prob := cutPoolProblem(t)
	set := qp.DefaultSettings()
	set.EpsAbs, set.EpsRel = 1e-9, 1e-9
	set.MaxIter = 400000
	res, err := qp.Solve(prob, set)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != qp.Solved {
		t.Fatalf("status %v after %d iterations", res.Status, res.Iters)
	}
	if v := prob.MaxViolation(res.X); v > 1e-6 {
		t.Errorf("violation %g > 1e-6", v)
	}
	if g := kktResidual(prob, res.X, res.Y); g > 1e-6 {
		t.Errorf("KKT stationarity %g > 1e-6", g)
	}
}

// kktResidual returns ‖Px + q + Aᵀy‖∞ at (x, y).
func kktResidual(p *qp.Problem, x, y []float64) float64 {
	r := make([]float64, len(x))
	if p.P != nil {
		p.P.MulVec(r, x)
	}
	for i := range r {
		r[i] += p.Q[i]
	}
	p.A.AddMulTVec(r, y)
	return qp.InfNorm(r)
}

// BenchmarkCutPoolSolve times a full ADMM solve of the cut-pool matrix
// at the production tolerance: symbolic analysis, factorizations and
// every x-step.
func BenchmarkCutPoolSolve(b *testing.B) {
	prob := cutPoolProblem(b)
	set := qp.DefaultSettings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := qp.Solve(prob, set); err != nil {
			b.Fatal(err)
		}
	}
}
