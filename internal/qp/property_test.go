package qp

import (
	"math"
	"math/rand"
	"testing"
)

// randomFeasibleQP draws a strictly convex QP with a known interior
// point: a diagonally dominant (hence PSD) P, box rows on every
// variable, and a handful of general rows — some of them equalities —
// whose bounds are placed around A·x0 so the instance is guaranteed
// feasible.
func randomFeasibleQP(rng *rand.Rand) *Problem {
	n := 5 + rng.Intn(26)
	pt := NewTriplet(n, n)
	diag := make([]float64, n)
	for i := 0; i < n; i++ {
		diag[i] = 1 + rng.Float64()
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		v := 0.3 * (rng.Float64() - 0.5)
		pt.Add(i, j, v)
		pt.Add(j, i, v)
		// Keep diagonal dominance so P stays PSD.
		diag[i] += math.Abs(v)
		diag[j] += math.Abs(v)
	}
	for i := 0; i < n; i++ {
		pt.Add(i, i, diag[i])
	}
	q := make([]float64, n)
	x0 := make([]float64, n)
	for i := range q {
		q[i] = rng.NormFloat64()
		x0[i] = 2*rng.Float64() - 1
	}
	mExtra := 1 + rng.Intn(8)
	at := NewTriplet(n+mExtra, n)
	l := make([]float64, n+mExtra)
	u := make([]float64, n+mExtra)
	for i := 0; i < n; i++ {
		at.Add(i, i, 1)
		l[i], u[i] = -2, 2
	}
	for r := 0; r < mExtra; r++ {
		row := make([]float64, n)
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			row[j] += 2*rng.Float64() - 1
		}
		ax := 0.0
		for j, v := range row {
			if v != 0 {
				at.Add(n+r, j, v)
				ax += v * x0[j]
			}
		}
		if rng.Float64() < 0.3 {
			l[n+r], u[n+r] = ax, ax // equality constraint
		} else {
			l[n+r] = ax - (0.1 + rng.Float64())
			u[n+r] = ax + (0.1 + rng.Float64())
		}
	}
	return &Problem{P: pt.Compile(), Q: q, A: at.Compile(), L: l, U: u}
}

// kktStationarity returns ‖Px + q + Aᵀy‖∞, the unscaled Lagrangian
// gradient norm at (x, y).
func kktStationarity(p *Problem, x, y []float64) float64 {
	r := make([]float64, len(x))
	if p.P != nil {
		p.P.MulVec(r, x)
	}
	for i := range r {
		r[i] += p.Q[i]
	}
	p.A.AddMulTVec(r, y)
	return InfNorm(r)
}

// TestSolveKKTProperty solves a batch of randomized feasible instances
// at tight tolerance and checks the first-order optimality certificate
// directly: primal feasibility within tolerance, KKT stationarity below
// 1e-6, and dual sign consistency at inactive constraints.
func TestSolveKKTProperty(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prob := randomFeasibleQP(rng)
		if err := prob.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid problem: %v", seed, err)
		}
		res, err := solveOnce(prob, tightSettings())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Status != Solved {
			t.Fatalf("seed %d: status %v after %d iters", seed, res.Status, res.Iters)
		}
		if v := prob.MaxViolation(res.X); v > 1e-6 {
			t.Errorf("seed %d: constraint violation %g > 1e-6", seed, v)
		}
		if g := kktStationarity(prob, res.X, res.Y); g > 1e-6 {
			t.Errorf("seed %d: KKT stationarity %g > 1e-6", seed, g)
		}
		// Dual feasibility: a multiplier may only push at an active
		// bound — strictly interior rows must carry a ~zero multiplier,
		// and at one-sided activity its sign is determined.
		ax := make([]float64, prob.A.M)
		prob.A.MulVec(ax, res.X)
		const act, ytol = 1e-5, 1e-5
		for i := range ax {
			if prob.L[i] == prob.U[i] {
				continue // equality rows: any sign
			}
			loAct := ax[i]-prob.L[i] < act
			hiAct := prob.U[i]-ax[i] < act
			switch {
			case !loAct && !hiAct:
				if math.Abs(res.Y[i]) > ytol {
					t.Errorf("seed %d: inactive row %d has multiplier %g", seed, i, res.Y[i])
				}
			case loAct && !hiAct:
				if res.Y[i] > ytol {
					t.Errorf("seed %d: lower-active row %d has positive multiplier %g", seed, i, res.Y[i])
				}
			case hiAct && !loAct:
				if res.Y[i] < -ytol {
					t.Errorf("seed %d: upper-active row %d has negative multiplier %g", seed, i, res.Y[i])
				}
			}
		}
		// The reported objective must match a direct evaluation.
		if math.Abs(res.Obj-prob.Objective(res.X)) > 1e-8*(1+math.Abs(res.Obj)) {
			t.Errorf("seed %d: reported objective %g vs evaluated %g", seed, res.Obj, prob.Objective(res.X))
		}
	}
}
