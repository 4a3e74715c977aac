package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sta"
)

// smoothCompiled compiles AES-65 at scale 0.05 under opt.
func smoothCompiled(t *testing.T, opt Options) *Compiled {
	t.Helper()
	ctx := context.Background()
	d, err := gen.GenerateCtx(ctx, gen.AES65().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenNominalCtx(ctx, d, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitModelCtx(ctx, golden, opt.BothLayers, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileCtx(ctx, golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// smoothViolation returns the largest violation at x of the compiled
// smoothness rows of a base compile: its fixed rows from startRows on.
func smoothViolation(c *Compiled, x []float64) float64 {
	a := c.fixedA
	worst := 0.0
	for r := c.startRows; r < a.M; r++ {
		v := 0.0
		for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
			v += a.Val[k] * x[a.Col[k]]
		}
		worst = math.Max(worst, math.Max(v-c.fixedU[r], c.fixedL[r]-v))
	}
	return worst
}

// TestSeparatedMapsMeetDelta: every iterate the cut engine accepts meets
// every smoothness row within smoothSepTol before Legalize, although the
// QP starts from its box rows.  It covers poly, both layers, joint
// dose+bias and bias-only compiles, each through a QP at 0.99 × MCT and
// through a descending run of clock-period probes on one solver, the
// way the QCP bisection shares its pool.  The dose runs must actually
// separate rows; the bias-only compile has none to separate.
func TestSeparatedMapsMeetDelta(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		mod  func(*Options)
	}{
		{"poly", func(*Options) {}},
		{"both-layers", func(o *Options) { o.BothLayers = true }},
		{"joint", func(o *Options) { o.BiasGridUm = 20; o.XiNW = 500 }},
		{"bias-only", func(o *Options) { o.DoseOff = true; o.BiasGridUm = 20; o.XiNW = 500 }},
	}
	for _, tc := range cases {
		opt := DefaultOptions()
		tc.mod(&opt)
		opt = opt.normalized()
		c := smoothCompiled(t, opt)
		mct := c.Golden.MCT
		check := func(cs *cutSolver, what string) {
			t.Helper()
			if v := smoothViolation(c, cs.x); v > smoothSepTol {
				t.Errorf("%s %s: smoothness violated by %.4g dose %% > %g", tc.name, what, v, smoothSepTol)
			}
		}
		single := newCutSolverCompiled(c, opt)
		if _, feasible, err := single.solveTau(ctx, 0.99*mct, math.Inf(1)); err != nil || !feasible {
			t.Fatalf("%s QP: feasible=%v err=%v", tc.name, feasible, err)
		}
		check(single, "QP")

		probes := newCutSolverCompiled(c, opt)
		accepted := 0
		for _, f := range []float64{1, 0.97, 0.95, 0.93, 0.91} {
			_, feasible, err := probes.solveTau(ctx, f*mct, opt.XiNW)
			if err != nil || !feasible {
				continue
			}
			accepted++
			check(probes, "probe")
		}
		if accepted == 0 {
			t.Errorf("%s: no probe accepted", tc.name)
		}
		_, smooth := probes.pool.counts()
		_, qpSmooth := single.pool.counts()
		if opt.DoseOff {
			if c.startRows != c.fixedA.M || smooth+qpSmooth != 0 {
				t.Errorf("bias-only: %d of %d fixed rows start, %d smoothness rows pooled; want all and none",
					c.startRows, c.fixedA.M, smooth+qpSmooth)
			}
		} else if smooth == 0 || qpSmooth == 0 {
			t.Errorf("%s: pooled %d (QP) and %d (probes) smoothness rows; the runs no longer separate any", tc.name, qpSmooth, smooth)
		}
	}
}

// TestLazySmoothMatchesFullPrefix solves AES-65 at scale 0.05 twice per
// clock period, from the box rows (the production compile) and with
// every smoothness row in the starting rows, over a range of τ from the
// nominal MCT down past the fastest reachable one, as a plain QP and
// under the ξ = 0 budget of the QCP.  The verdicts must agree, a solver
// error counting as infeasible as in the QCP's probes.  Where both are
// feasible, the lazy objective lies between the full-prefix one and
// that less the dual-priced separation slack Σ|y_r|·smoothSepTol over
// the full solve's smoothness rows, up to the QCP's leakage tolerance
// on either side: each separated row may end up to smoothSepTol outside
// [−δ, δ], and a convex program's value falls by at most its duals
// times such a relaxation.
func TestLazySmoothMatchesFullPrefix(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	c := smoothCompiled(t, opt)
	full := *c
	full.startRows = full.fixedA.M
	tol := xiToleranceLeak(c.nomLeakUW, 0)
	feasibleBoth, infeasibleBoth := 0, 0
	for _, xi := range []float64{math.Inf(1), 0} {
		for _, f := range []float64{1, 0.99, 0.97, 0.95, 0.93, 0.91, 0.9, 0.87} {
			tau := f * c.Golden.MCT
			lazy := newCutSolverCompiled(c, opt)
			objL, okL, errL := lazy.solveTau(ctx, tau, xi)
			whole := newCutSolverCompiled(&full, opt)
			objF, okF, errF := whole.solveTau(ctx, tau, xi)
			okL, okF = okL && errL == nil, okF && errF == nil
			if okL != okF {
				t.Errorf("ξ=%v τ=%.2f×MCT: lazy feasible=%v (err %v), full prefix feasible=%v (err %v)", xi, f, okL, errL, okF, errF)
				continue
			}
			if !okL {
				infeasibleBoth++
				continue
			}
			feasibleBoth++
			slack := 0.0
			for r := c.startRows; r < full.fixedA.M; r++ {
				slack += math.Abs(whole.y[r])
			}
			slack *= smoothSepTol
			if objL > objF+tol || objL < objF-slack-tol {
				t.Errorf("ξ=%v τ=%.2f×MCT: lazy objective %.4f nW outside [%.4f, %.4f] around the full prefix's %.4f",
					xi, f, objL, objF-slack-tol, objF+tol, objF)
			}
		}
	}
	if feasibleBoth == 0 || infeasibleBoth == 0 {
		t.Errorf("%d feasible and %d infeasible agreements; the τ range no longer covers both verdicts", feasibleBoth, infeasibleBoth)
	}
}
