package qp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// tightSettings returns the property-test solver configuration.
func tightSettings() Settings {
	set := DefaultSettings()
	set.EpsAbs, set.EpsRel = 1e-9, 1e-9
	set.MaxIter = 200000
	return set
}

// TestZeroPivotIsError: with σ = 0 a variable that no row and no
// curvature touches leaves K singular.  The factorization hits a zero
// pivot at that column, and the solve must stop with an error naming
// it, never report a NaN iterate as solved.
func TestZeroPivotIsError(t *testing.T) {
	a := NewTriplet(1, 2)
	a.Add(0, 0, 1)
	prob := &Problem{Q: []float64{1, 0}, A: a.Compile(), L: []float64{-1}, U: []float64{1}}
	set := DefaultSettings()
	set.Sigma = 0
	check := func(what string, res *Result, err error) {
		t.Helper()
		if !errors.Is(err, errNotPositiveDefinite) {
			t.Fatalf("%s: err = %v, want a zero-pivot error", what, err)
		}
		if !strings.Contains(err.Error(), "column 1") {
			t.Errorf("%s: error %q does not name column 1", what, err)
		}
		if res == nil || res.Status == Solved {
			t.Fatalf("%s: result %+v reports a solve", what, res)
		}
		if err := checkFinite("x", res.X); err != nil {
			t.Errorf("%s: %v", what, err)
		}
	}

	s, err := NewSolver(prob, set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveCtx(context.Background())
	check("SolveCtx", res, err)

	var family []*Solver
	for range 2 {
		s, err := NewSolver(prob, set)
		if err != nil {
			t.Fatal(err)
		}
		family = append(family, s)
	}
	results, err := SolveBatchCtx(context.Background(), family)
	if len(results) != len(family) {
		t.Fatalf("SolveBatchCtx returned %d results for %d members (err %v)", len(results), len(family), err)
	}
	for q, res := range results {
		check(fmt.Sprintf("SolveBatchCtx member %d", q), res, err)
	}
}

// csrRows extracts rows [lo, hi) of a as a fresh CSR.
func csrRows(a *CSR, lo, hi int) *CSR {
	tr := NewTriplet(hi-lo, a.N)
	for r := lo; r < hi; r++ {
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			tr.Add(r-lo, a.Col[k], a.Val[k])
		}
	}
	return tr.Compile()
}

// TestLDLTAppendMatchesColdFactor appends constraint rows to a live
// factor and checks the refactorized solve against a cold factor of the
// full matrix, plus a direct residual check against K itself.
func TestLDLTAppendMatchesColdFactor(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		prob := randomFeasibleQP(rng)
		n := prob.A.N
		m := prob.A.M
		split := m - 1 - rng.Intn(3)
		a1 := csrRows(prob.A, 0, split)
		const sigma, rho = 1e-6, 0.34

		f := new(ldltFactor).analyze(prob.P, sigma, a1, n)
		f.AppendRows(prob.A, split)
		if err := f.Refactor(rho); err != nil {
			t.Fatalf("seed %d: append refactor: %v", seed, err)
		}
		cold := new(ldltFactor).analyze(prob.P, sigma, prob.A, n)
		if err := cold.Refactor(rho); err != nil {
			t.Fatalf("seed %d: cold refactor: %v", seed, err)
		}
		// The two factors use different permutations (the merged one keeps
		// the subset-derived RCM order), so nnz(L) may differ; the solves
		// below must still agree exactly on the same K.

		b := make([]float64, n)
		for j := range b {
			b[j] = rng.NormFloat64()
		}
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		solve1(f, x1, b)
		solve1(cold, x2, b)
		for j := range x1 {
			if d := math.Abs(x1[j] - x2[j]); d > 1e-9*(1+math.Abs(x2[j])) {
				t.Fatalf("seed %d: appended vs cold solve differ at %d: %g vs %g", seed, j, x1[j], x2[j])
			}
		}

		// Residual check: K x = (P + σI + ρAᵀA) x must reproduce b.
		kx := make([]float64, n)
		prob.P.MulVec(kx, x1)
		ax := make([]float64, m)
		prob.A.MulVec(ax, x1)
		aty := make([]float64, n)
		prob.A.MulTVec(aty, ax)
		res := 0.0
		for j := 0; j < n; j++ {
			r := kx[j] + sigma*x1[j] + rho*aty[j] - b[j]
			if math.Abs(r) > res {
				res = math.Abs(r)
			}
		}
		if res > 1e-8*(1+InfNorm(b)) {
			t.Errorf("seed %d: ‖Kx − b‖∞ = %g", seed, res)
		}
	}
}

// TestSolverAppendRowsMatchesCold appends rows to a live LDLᵀ-backed
// solver mid-stream and checks the re-solved optimum against a cold
// solver built on the full problem.
func TestSolverAppendRowsMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		prob := randomFeasibleQP(rng)
		m := prob.A.M
		split := m - 1 - rng.Intn(3)

		sub := &Problem{P: prob.P, Q: prob.Q,
			A: csrRows(prob.A, 0, split),
			L: prob.L[:split], U: prob.U[:split]}
		warm, err := NewSolver(sub, tightSettings())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := warm.SolveCtx(context.Background()); err != nil {
			t.Fatalf("seed %d: pre-append solve: %v", seed, err)
		}
		if err := warm.AppendRows(csrRows(prob.A, split, m), prob.L[split:], prob.U[split:]); err != nil {
			t.Fatalf("seed %d: AppendRows: %v", seed, err)
		}
		rw, err := warm.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("seed %d: post-append solve: %v", seed, err)
		}

		cold, err := NewSolver(prob, tightSettings())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rc, err := cold.SolveCtx(context.Background())
		if err != nil {
			t.Fatalf("seed %d: cold solve: %v", seed, err)
		}
		if rw.Status != rc.Status {
			t.Fatalf("seed %d: status warm=%v cold=%v", seed, rw.Status, rc.Status)
		}
		for j := range rw.X {
			if d := math.Abs(rw.X[j] - rc.X[j]); d > 1e-5 {
				t.Errorf("seed %d: x[%d] warm %g vs cold %g (Δ %g)", seed, j, rw.X[j], rc.X[j], d)
				break
			}
		}
		if v := prob.MaxViolation(rw.X); v > 1e-6 {
			t.Errorf("seed %d: post-append violation %g > 1e-6", seed, v)
		}
		if g := kktStationarity(prob, rw.X, rw.Y); g > 1e-6 {
			t.Errorf("seed %d: post-append KKT %g > 1e-6", seed, g)
		}
	}
}
