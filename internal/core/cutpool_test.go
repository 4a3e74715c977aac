package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/qp"
	"repro/internal/sta"
)

// aes65Compiled compiles the scaled AES-65 instance of the cut-pool
// tests under the default options.  A cut probe at 0.99 × its golden MCT
// needs more than one cut round.
func aes65Compiled(tb testing.TB) (*Compiled, Options) {
	tb.Helper()
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.04))
	if err != nil {
		tb.Fatal(err)
	}
	golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		tb.Fatal(err)
	}
	opt := DefaultOptions()
	c, err := CompileCtx(context.Background(), golden, model, opt.CompileOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return c, opt
}

// cutPoolProblem runs one cut-generation QP on a scaled AES-65 instance
// and assembles the resulting problem — box and smoothness prefix plus
// every path cut the solve generated.  This is the real matrix the
// x-step factors: a banded grid Laplacian with short dense-ish cut rows
// appended.
func cutPoolProblem(tb testing.TB) *qp.Problem {
	tb.Helper()
	c, opt := aes65Compiled(tb)
	cs := newCutSolverCompiled(c, opt)
	tau := 0.99 * c.Golden.MCT
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

// TestCutRoundBudgetLastRound: a probe that converges in the last round
// its budget allows is feasible, whether solveTau or a one-member
// solveTauGroup runs it, and one round less exhausts the budget.
func TestCutRoundBudgetLastRound(t *testing.T) {
	c, opt := aes65Compiled(t)
	tau := 0.99 * c.Golden.MCT
	ctx := context.Background()
	ref := newCutSolverCompiled(c, opt)
	if _, feasible, err := ref.solveTau(ctx, tau, math.Inf(1)); err != nil || !feasible {
		t.Fatalf("default budget: feasible=%v err=%v", feasible, err)
	}
	r := ref.rounds
	if r < 2 {
		t.Fatalf("probe converged in %d round; the instance no longer needs cuts", r)
	}
	budget := func(rounds int) *cutSolver {
		cs := newCutSolverCompiled(c, opt)
		cs.maxRounds = rounds
		return cs
	}
	if _, feasible, err := budget(r).solveTau(ctx, tau, math.Inf(1)); err != nil || !feasible {
		t.Errorf("solveTau, %d-round budget: feasible=%v err=%v", r, feasible, err)
	}
	if _, feas, err := solveTauGroup(ctx, []*cutSolver{budget(r)}, tau, math.Inf(1)); err != nil || !feas[0] {
		t.Errorf("solveTauGroup, %d-round budget: feas=%v err=%v", r, feas, err)
	}
	if _, _, err := budget(r-1).solveTau(ctx, tau, math.Inf(1)); err == nil || !strings.Contains(err.Error(), "round budget") {
		t.Errorf("solveTau, %d-round budget: err=%v, want the round-budget error", r-1, err)
	}
}

// TestCutPoolSolveKKT solves the AES-derived cut-pool instance at tight
// tolerance and checks the first-order certificate: status Solved,
// constraint violation and KKT stationarity both ≤ 1e-6.
func TestCutPoolSolveKKT(t *testing.T) {
	prob := cutPoolProblem(t)
	set := qp.DefaultSettings()
	set.EpsAbs, set.EpsRel = 1e-9, 1e-9
	set.MaxIter = 400000
	s, err := qp.NewSolver(prob, set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveCtx(context.Background())
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
		s, err := qp.NewSolver(prob, set)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SolveCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
