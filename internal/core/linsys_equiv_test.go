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
// linear-system backends compete on: a banded grid Laplacian with short
// dense-ish cut rows appended.
func cutPoolProblem(tb testing.TB) (*qp.Problem, float64) {
	tb.Helper()
	return cutPoolProblemScaled(tb, 0.04)
}

// cutPoolProblemScaled is cutPoolProblem at an explicit design scale.
func cutPoolProblemScaled(tb testing.TB, scale float64) (*qp.Problem, float64) {
	tb.Helper()
	d, err := gen.Generate(gen.AES65().Scaled(scale))
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
	// the optimizer leaves them anywhere inside the smoothness polytope —
	// the optimum is not unique there and a cross-backend x comparison
	// would be ill-posed.  A ridge six orders below the real curvature
	// pins them without perturbing the meaningful coordinates.
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
	return cs.buildProblem(tau, cs.pool.snapshot()), tau
}

// TestCutPoolBackendEquivalence solves the AES-derived cut-pool
// instance through both backends at tight tolerance and demands
// tolerance-identical optima.
func TestCutPoolBackendEquivalence(t *testing.T) {
	prob, _ := cutPoolProblem(t)

	solve := func(ls qp.LinSys) *qp.Result {
		set := qp.DefaultSettings()
		set.EpsAbs, set.EpsRel = 1e-9, 1e-9
		set.MaxIter = 400000
		set.CGTol = 1e-12
		set.LinSys = ls
		s, err := qp.NewSolver(prob, set)
		if err != nil {
			t.Fatalf("%v: %v", ls, err)
		}
		if got := s.Backend(); got != ls {
			t.Fatalf("forced backend %v but solver picked %v", ls, got)
		}
		res, err := s.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("%v: %v", ls, err)
		}
		return res
	}
	rcg := solve(qp.LinSysCG)
	rld := solve(qp.LinSysLDLT)

	if rcg.Status != rld.Status {
		t.Fatalf("status cg=%v ldlt=%v", rcg.Status, rld.Status)
	}
	diff := 0.0
	for j := range rcg.X {
		if d := math.Abs(rcg.X[j] - rld.X[j]); d > diff {
			diff = d
		}
	}
	if diff > 1e-6 {
		t.Errorf("‖x_cg − x_ldlt‖∞ = %g > 1e-6", diff)
	}
	for _, r := range []*qp.Result{rcg, rld} {
		if v := prob.MaxViolation(r.X); v > 1e-6 {
			t.Errorf("violation %g > 1e-6", v)
		}
		if g := kktResidual(prob, r.X, r.Y); g > 1e-6 {
			t.Errorf("KKT stationarity %g > 1e-6", g)
		}
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

// BenchmarkLinSys times a full ADMM solve of the cut-pool matrix under
// each backend at the production tolerance — the micro-benchmark behind
// the Auto default.
func BenchmarkLinSys(b *testing.B) {
	prob, _ := cutPoolProblem(b)
	for _, ls := range []qp.LinSys{qp.LinSysCG, qp.LinSysLDLT} {
		b.Run(ls.String(), func(b *testing.B) {
			set := qp.DefaultSettings()
			set.LinSys = ls
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
		})
	}
}
