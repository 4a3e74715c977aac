package qp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fit"
)

// mustSolve runs s to termination and fails the test on a solve error.
func mustSolve(t testing.TB, s *Solver) *Result {
	t.Helper()
	res, err := s.SolveCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// solveOnce builds a solver for prob and runs it once.
func solveOnce(prob *Problem, set Settings) (*Result, error) {
	s, err := NewSolver(prob, set)
	if err != nil {
		return nil, err
	}
	return s.SolveCtx(context.Background())
}

func diagCSR(d []float64) *CSR {
	tr := NewTriplet(len(d), len(d))
	for i, v := range d {
		tr.Add(i, i, v)
	}
	return tr.Compile()
}

func inf() float64 { return math.Inf(1) }

func TestValidate(t *testing.T) {
	p := &Problem{Q: []float64{1}}
	if err := p.Validate(); err != nil {
		t.Errorf("minimal problem should validate: %v", err)
	}
	bad := &Problem{Q: nil}
	if err := bad.Validate(); err == nil {
		t.Error("empty objective should fail")
	}
	tr := NewTriplet(1, 2)
	tr.Add(0, 0, 1)
	bad2 := &Problem{Q: []float64{1}, A: tr.Compile(), L: []float64{0}, U: []float64{1}}
	if err := bad2.Validate(); err == nil {
		t.Error("column mismatch should fail")
	}
	tr3 := NewTriplet(1, 1)
	tr3.Add(0, 0, 1)
	bad3 := &Problem{Q: []float64{1}, A: tr3.Compile(), L: []float64{2}, U: []float64{1}}
	if err := bad3.Validate(); err == nil {
		t.Error("l > u should fail")
	}
}

func TestUnconstrainedQP(t *testing.T) {
	// min ½(2x² + 4y²) + (-2x + 8y)  →  x = 1, y = -2.
	prob := &Problem{
		P: diagCSR([]float64{2, 4}),
		Q: []float64{-2, 8},
	}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]+2) > 1e-3 {
		t.Errorf("x = %v, want [1 -2]", res.X)
	}
}

func TestBoxConstrainedProjection(t *testing.T) {
	// min ½‖x − c‖²  s.t. 0 ≤ x ≤ 1  →  x = clamp(c, 0, 1).
	c := []float64{-0.5, 0.3, 2.0, 1.0, 0.0}
	n := len(c)
	q := make([]float64, n)
	pd := make([]float64, n)
	for i := range c {
		q[i] = -c[i]
		pd[i] = 1
	}
	tr := NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range hi {
		hi[i] = 1
	}
	prob := &Problem{P: diagCSR(pd), Q: q, A: tr.Compile(), L: lo, U: hi}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	for i := range c {
		want := math.Max(0, math.Min(1, c[i]))
		if math.Abs(res.X[i]-want) > 2e-3 {
			t.Errorf("x[%d] = %v, want %v", i, res.X[i], want)
		}
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x² + y²  s.t. x + y = 1  →  (0.5, 0.5).
	tr := NewTriplet(1, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 1)
	prob := &Problem{
		P: diagCSR([]float64{2, 2}),
		Q: []float64{0, 0},
		A: tr.Compile(),
		L: []float64{1},
		U: []float64{1},
	}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[0]-0.5) > 1e-3 || math.Abs(res.X[1]-0.5) > 1e-3 {
		t.Errorf("x = %v, want [0.5 0.5]", res.X)
	}
}

func TestLinearProgram(t *testing.T) {
	// min -x - 2y  s.t. x + y ≤ 4, 0 ≤ x ≤ 3, 0 ≤ y ≤ 3  → (1, 3), obj -7.
	tr := NewTriplet(3, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	tr.Add(2, 1, 1)
	prob := &Problem{
		Q: []float64{-1, -2},
		A: tr.Compile(),
		L: []float64{-inf(), 0, 0},
		U: []float64{4, 3, 3},
	}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Obj+7) > 5e-3 {
		t.Errorf("obj = %v, want -7 (x = %v)", res.Obj, res.X)
	}
}

func TestPrimalInfeasibleDetection(t *testing.T) {
	// x ≤ 1 and x ≥ 2 simultaneously.
	tr := NewTriplet(2, 1)
	tr.Add(0, 0, 1)
	tr.Add(1, 0, 1)
	prob := &Problem{
		P: diagCSR([]float64{1}),
		Q: []float64{0},
		A: tr.Compile(),
		L: []float64{-inf(), 2},
		U: []float64{1, inf()},
	}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != PrimalInfeasible {
		t.Errorf("status = %v, want primal-infeasible", res.Status)
	}
}

// TestAgainstDenseKKT cross-checks the ADMM solver against a direct dense
// KKT solve on random equality-constrained convex QPs:
//
//	min ½xᵀPx + qᵀx  s.t.  Ax = b   ⇔   [P Aᵀ; A 0][x; ν] = [-q; b].
func TestAgainstDenseKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(5)
		m := 1 + rng.Intn(n-1)
		pd := make([]float64, n)
		q := make([]float64, n)
		for i := range pd {
			pd[i] = 0.5 + rng.Float64()*3
			q[i] = rng.NormFloat64()
		}
		tr := NewTriplet(m, n)
		dense := make([][]float64, m)
		for i := 0; i < m; i++ {
			dense[i] = make([]float64, n)
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				dense[i][j] = v
				tr.Add(i, j, v)
			}
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		// Dense KKT reference.
		kkt := make([][]float64, n+m)
		rhs := make([]float64, n+m)
		for i := range kkt {
			kkt[i] = make([]float64, n+m)
		}
		for i := 0; i < n; i++ {
			kkt[i][i] = pd[i]
			rhs[i] = -q[i]
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				kkt[n+i][j] = dense[i][j]
				kkt[j][n+i] = dense[i][j]
			}
			rhs[n+i] = b[i]
		}
		ref, err := fit.Solve(kkt, rhs)
		if err != nil {
			continue // singular draw; skip
		}

		prob := &Problem{P: diagCSR(pd), Q: q, A: tr.Compile(), L: b, U: append([]float64(nil), b...)}
		set := DefaultSettings()
		set.EpsAbs, set.EpsRel = 1e-6, 1e-6
		res, err := solveOnce(prob, set)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Solved {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		for j := 0; j < n; j++ {
			if math.Abs(res.X[j]-ref[j]) > 1e-3*(1+math.Abs(ref[j])) {
				t.Errorf("trial %d: x[%d] = %v, KKT ref %v", trial, j, res.X[j], ref[j])
			}
		}
	}
}

// TestDoseShapedProblem exercises the exact structure the flow generates:
// dose variables with box bounds and chain smoothness constraints, convex
// separable objective pulling toward a per-grid target.
func TestDoseShapedProblem(t *testing.T) {
	n := 12
	delta := 0.7
	target := make([]float64, n)
	for i := range target {
		if i%2 == 0 {
			target[i] = 5
		} else {
			target[i] = -5
		}
	}
	pd := make([]float64, n)
	q := make([]float64, n)
	for i := range pd {
		pd[i] = 1
		q[i] = -target[i]
	}
	rows := n + (n - 1)
	tr := NewTriplet(rows, n)
	l := make([]float64, rows)
	u := make([]float64, rows)
	for i := 0; i < n; i++ { // box ±5
		tr.Add(i, i, 1)
		l[i], u[i] = -5, 5
	}
	for i := 0; i < n-1; i++ { // smoothness
		tr.Add(n+i, i, 1)
		tr.Add(n+i, i+1, -1)
		l[n+i], u[n+i] = -delta, delta
	}
	prob := &Problem{P: diagCSR(pd), Q: q, A: tr.Compile(), L: l, U: u}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	if v := prob.MaxViolation(res.X); v > 1e-3 {
		t.Errorf("constraint violation %v", v)
	}
	// With alternating ±5 targets and tight smoothness, neighbours must
	// differ by exactly ±δ at optimum (the smoothness bound is active).
	for i := 0; i+1 < n; i++ {
		if d := math.Abs(res.X[i] - res.X[i+1]); d > delta+2e-3 {
			t.Errorf("smoothness violated between %d and %d: %v", i, i+1, d)
		}
	}
	// Objective must beat the zero map.
	if res.Obj >= 0 {
		t.Errorf("objective %v should beat zero map", res.Obj)
	}
}

func TestWarmStartAndUpdateBounds(t *testing.T) {
	// Same dose-shaped problem; after solving, tighten the box and
	// warm-start: result must satisfy the new bounds and converge.
	n := 8
	pd := make([]float64, n)
	q := make([]float64, n)
	for i := range pd {
		pd[i] = 1
		q[i] = -4 // pull toward +4
	}
	tr := NewTriplet(n, n)
	l := make([]float64, n)
	u := make([]float64, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
		l[i], u[i] = -5, 5
	}
	prob := &Problem{P: diagCSR(pd), Q: q, A: tr.Compile(), L: l, U: u}
	s, err := NewSolver(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	res1 := mustSolve(t, s)
	if res1.Status != Solved {
		t.Fatalf("first solve: %v", res1.Status)
	}
	for i := range res1.X {
		if math.Abs(res1.X[i]-4) > 2e-3 {
			t.Fatalf("x[%d] = %v, want 4", i, res1.X[i])
		}
	}
	// Tighten upper bounds to 2.
	for i := range u {
		u[i] = 2
	}
	if err := s.UpdateBounds(l, u); err != nil {
		t.Fatal(err)
	}
	res2 := mustSolve(t, s)
	if res2.Status != Solved {
		t.Fatalf("second solve: %v", res2.Status)
	}
	for i := range res2.X {
		if math.Abs(res2.X[i]-2) > 2e-3 {
			t.Errorf("after tightening, x[%d] = %v, want 2", i, res2.X[i])
		}
	}
	// Warm start with explicit vectors must be accepted.
	if err := s.WarmStart(res2.X, res2.Y); err != nil {
		t.Fatal(err)
	}
	res3 := mustSolve(t, s)
	if res3.Status != Solved {
		t.Errorf("warm-started solve: %v", res3.Status)
	}
	// Error paths.
	if err := s.WarmStart(make([]float64, n+1), nil); err == nil {
		t.Error("expected warm-start length error")
	}
	if err := s.UpdateBounds(make([]float64, n+1), u); err == nil {
		t.Error("expected bounds length error")
	}
}

func TestMixedScaleProblem(t *testing.T) {
	// Variables with wildly different magnitudes, as in the real
	// formulation (dose ≈ ±5, arrival times ≈ 2000).  Equilibration must
	// make this converge: min (x−2000)² + (y−3)² s.t. x − 100y ≤ 1800,
	// 0 ≤ y ≤ 5, x ≥ 0.
	tr := NewTriplet(3, 2)
	tr.Add(0, 0, 1)
	tr.Add(0, 1, -100)
	tr.Add(1, 1, 1)
	tr.Add(2, 0, 1)
	prob := &Problem{
		P: diagCSR([]float64{2, 2}),
		Q: []float64{-4000, -6},
		A: tr.Compile(),
		L: []float64{-inf(), 0, 0},
		U: []float64{1800, 5, inf()},
	}
	res, err := solveOnce(prob, DefaultSettings())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Solved {
		t.Fatalf("status = %v", res.Status)
	}
	if v := prob.MaxViolation(res.X); v > 1e-2 {
		t.Errorf("violation = %v", v)
	}
	// KKT reference: unconstrained optimum (2000, 3) violates row 0 by
	// 2000-300-1800 = -100 ≤ 0... actually 2000-300=1700 ≤ 1800 feasible.
	if math.Abs(res.X[0]-2000) > 1 || math.Abs(res.X[1]-3) > 0.01 {
		t.Errorf("x = %v, want [2000 3]", res.X)
	}
}

func TestObjectiveAndViolationHelpers(t *testing.T) {
	prob := &Problem{P: diagCSR([]float64{2}), Q: []float64{1}}
	if got := prob.Objective([]float64{3}); got != 0.5*2*9+3 {
		t.Errorf("Objective = %v", got)
	}
	if got := prob.MaxViolation([]float64{3}); got != 0 {
		t.Errorf("MaxViolation with no constraints = %v", got)
	}
}

func TestStatusString(t *testing.T) {
	if Solved.String() != "solved" || MaxIterations.String() != "max-iterations" ||
		PrimalInfeasible.String() != "primal-infeasible" {
		t.Error("Status strings")
	}
	if Status(42).String() == "" {
		t.Error("unknown status should still format")
	}
}
