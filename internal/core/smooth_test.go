package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/dosemap"
	"repro/internal/gen"
	"repro/internal/qp"
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

// fixedRowsOracle is the Triplet assembly of the box and smoothness
// rows that the compile held before its smoothness rows went lazy: box
// rows per block in block order (Eq. 3/8 for dose, the bias voltage box
// for bias domains), then per dose layer the smoothness rows (Eq. 4/9)
// of each cell in row-major order — right, lower, lower-right.
func fixedRowsOracle(grid dosemap.Grid, nG, nVar int, co CompileOptions, blocks []ActuatorBlock) (*qp.CSR, []float64, []float64) {
	nLayers := 1
	if co.BothLayers {
		nLayers = 2
	}
	if co.DoseOff {
		nLayers = 0
	}
	type entry struct {
		r, c int
		v    float64
	}
	var entries []entry
	var l, u []float64
	row := 0
	addRow := func(lo, hi float64) int {
		l = append(l, lo)
		u = append(u, hi)
		r := row
		row++
		return r
	}
	for _, b := range blocks {
		for k := 0; k < b.N; k++ {
			r := addRow(b.Lo, b.Hi)
			entries = append(entries, entry{r, b.Off + k, 1})
		}
	}
	for layer := 0; layer < nLayers; layer++ {
		off := layer * nG
		for i := 0; i < grid.M; i++ {
			for j := 0; j < grid.N; j++ {
				a := grid.Flat(i, j)
				if j+1 < grid.N {
					r := addRow(-co.Delta, co.Delta)
					entries = append(entries, entry{r, off + a, 1}, entry{r, off + grid.Flat(i, j+1), -1})
				}
				if i+1 < grid.M {
					r := addRow(-co.Delta, co.Delta)
					entries = append(entries, entry{r, off + a, 1}, entry{r, off + grid.Flat(i+1, j), -1})
				}
				if i+1 < grid.M && j+1 < grid.N {
					r := addRow(-co.Delta, co.Delta)
					entries = append(entries, entry{r, off + a, 1}, entry{r, off + grid.Flat(i+1, j+1), -1})
				}
			}
		}
	}
	tr := qp.NewTriplet(row, nVar)
	for _, e := range entries {
		tr.Add(e.r, e.c, e.v)
	}
	return tr.Compile(), l, u
}

// oracleRows returns fixedRowsOracle's rows for c.
func oracleRows(c *Compiled) (*qp.CSR, []float64, []float64) {
	return fixedRowsOracle(c.Grid, c.NG, c.NVar, c.Opts, c.Blocks)
}

// smoothViolation returns the largest violation at x of the smoothness
// rows, walked over the grid's stencil per dose block, and how many
// pairs the walk covered.
func smoothViolation(c *Compiled, x []float64) (worst float64, pairs int) {
	for _, b := range c.doseBlocks() {
		c.Grid.EachPair(func(p, q int) {
			worst = math.Max(worst, math.Abs(x[b.Off+p]-x[b.Off+q])-c.Opts.Delta)
			pairs++
		})
	}
	return worst, pairs
}

// smoothModes are the actuator modes of the smoothness tests: poly, both
// layers, joint dose+bias and bias-only compiles.
var smoothModes = []struct {
	name string
	mod  func(*Options)
}{
	{"poly", func(*Options) {}},
	{"both-layers", func(o *Options) { o.BothLayers = true }},
	{"joint", func(o *Options) { o.BiasGridUm = 20; o.XiNW = 500 }},
	{"bias-only", func(o *Options) { o.DoseOff = true; o.BiasGridUm = 20; o.XiNW = 500 }},
}

// requireRows fails unless got and its bounds equal want and its bounds
// bit for bit: RowPtr, Col, Val, L and U.
func requireRows(t *testing.T, what string, got *qp.CSR, gl, gu []float64, want *qp.CSR, wl, wu []float64) {
	t.Helper()
	if got.M != want.M || got.N != want.N {
		t.Fatalf("%s: %d×%d rows, want %d×%d", what, got.M, got.N, want.M, want.N)
	}
	eqI(t, what+" RowPtr", got.RowPtr, want.RowPtr)
	eqI(t, what+" Col", got.Col, want.Col)
	eqF(t, what+" Val", got.Val, want.Val)
	eqF(t, what+" L", gl, wl)
	eqF(t, what+" U", gu, wu)
}

// TestSmoothRowsMatchTripletOracle pins every route to the smoothness
// rows to the Triplet assembly the compile used to store, in every
// actuator mode.  A base compile holds exactly the oracle's box rows.
// withSmoothRows, the base of the wafer's fields, holds all of its
// rows, and so does a poly field derived from it at zero bias.  And the
// separation scan, at an iterate that violates every pair, pools
// exactly the oracle's smoothness rows in the oracle's order with its
// bounds, and a second scan pools none of them again.
func TestSmoothRowsMatchTripletOracle(t *testing.T) {
	for _, tc := range smoothModes {
		opt := DefaultOptions()
		tc.mod(&opt)
		opt = opt.normalized()
		c := smoothCompiled(t, opt)
		want, wl, wu := oracleRows(c)
		nSmooth := want.M - c.NVar
		if opt.DoseOff != (nSmooth == 0) {
			t.Fatalf("%s: the oracle has %d smoothness rows", tc.name, nSmooth)
		}

		nnz := want.RowPtr[c.NVar]
		box := &qp.CSR{M: c.NVar, N: c.NVar, RowPtr: want.RowPtr[:c.NVar+1], Col: want.Col[:nnz], Val: want.Val[:nnz]}
		requireRows(t, tc.name+" base", c.fixedA, c.fixedL, c.fixedU, box, wl[:c.NVar], wu[:c.NVar])

		full := c.withSmoothRows()
		requireRows(t, tc.name+" withSmoothRows", full.fixedA, full.fixedL, full.fixedU, want, wl, wu)
		if c.smoothFixed || !full.smoothFixed {
			t.Errorf("%s: smoothFixed %v on the base and %v on withSmoothRows, want false and true", tc.name, c.smoothFixed, full.smoothFixed)
		}
		if tc.name == "poly" { // the one mode SolveWafer accepts
			fc, _ := deriveField(full, opt, 0)
			requireRows(t, tc.name+" derived field", fc.fixedA, fc.fixedL, fc.fixedU, want, wl, wu)
		}

		// x_a − x_b = (δ + 1)(b − a) > δ + smoothSepTol on every pair.
		cs := newCutSolverCompiled(c, opt)
		for _, b := range c.doseBlocks() {
			for k := 0; k < b.N; k++ {
				cs.x[b.Off+k] = -(opt.Delta + 1) * float64(k)
			}
		}
		for pass := 0; pass < 2; pass++ {
			if v := cs.separateSmooth(); v != nSmooth {
				t.Fatalf("%s pass %d: the scan found %d violated pairs, want all %d", tc.name, pass, v, nSmooth)
			}
		}
		cuts := cs.pool.snapshot()
		if len(cuts) != nSmooth {
			t.Fatalf("%s: the scan pooled %d rows, want %d", tc.name, len(cuts), nSmooth)
		}
		cols := make([][]int, nSmooth)
		vals := make([][]float64, nSmooth)
		pl := make([]float64, nSmooth)
		pu := make([]float64, nSmooth)
		for i, ct := range cuts {
			if !ct.smooth {
				t.Fatalf("%s: pooled row %d is not a smoothness row", tc.name, i)
			}
			cols[i], vals[i] = ct.cols, ct.vals
			pl[i], pu[i] = cs.rowBounds(ct, 0)
		}
		smooth := &qp.CSR{M: nSmooth, N: c.NVar, RowPtr: make([]int, nSmooth+1), Col: want.Col[nnz:], Val: want.Val[nnz:]}
		for r := range smooth.RowPtr {
			smooth.RowPtr[r] = want.RowPtr[c.NVar+r] - nnz
		}
		requireRows(t, tc.name+" pooled", qp.CSRFromRows(c.NVar, cols, vals), pl, pu, smooth, wl[c.NVar:], wu[c.NVar:])
	}
}

// TestSeparatedMapsMeetDelta: every iterate the cut engine accepts meets
// every smoothness row within smoothSepTol before Legalize, although the
// QP starts from its box rows, the only fixed rows of a base compile
// (TestSmoothRowsMatchTripletOracle).  It covers poly, both layers,
// joint dose+bias and bias-only compiles, each through a QP at 0.99 ×
// MCT and through a descending run of clock-period probes on one
// solver, the way the QCP bisection shares its pool.  The dose runs
// must actually separate rows and check some; the bias-only compile has
// none to separate.
func TestSeparatedMapsMeetDelta(t *testing.T) {
	ctx := context.Background()
	for _, tc := range smoothModes {
		opt := DefaultOptions()
		tc.mod(&opt)
		opt = opt.normalized()
		c := smoothCompiled(t, opt)
		mct := c.Golden.MCT
		check := func(cs *cutSolver, what string) {
			t.Helper()
			v, pairs := smoothViolation(c, cs.x)
			if v > smoothSepTol {
				t.Errorf("%s %s: smoothness violated by %.4g dose %% > %g", tc.name, what, v, smoothSepTol)
			}
			if opt.DoseOff != (pairs == 0) {
				t.Errorf("%s %s: the stencil walk covered %d pairs", tc.name, what, pairs)
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
			if smooth+qpSmooth != 0 {
				t.Errorf("bias-only: %d smoothness rows pooled; want none", smooth+qpSmooth)
			}
		} else if smooth == 0 || qpSmooth == 0 {
			t.Errorf("%s: pooled %d (QP) and %d (probes) smoothness rows; the runs no longer separate any", tc.name, qpSmooth, smooth)
		}
	}
}

// TestLazySmoothMatchesFullPrefix solves AES-65 at scale 0.05 twice per
// clock period, from the box rows (the production compile) and from
// every smoothness row (withSmoothRows, the base of the wafer's fields),
// over a range of τ from the
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
	full := c.withSmoothRows()
	if full.fixedA.M <= c.NVar {
		t.Fatalf("withSmoothRows holds %d fixed rows over %d box rows; no smoothness row", full.fixedA.M, c.NVar)
	}
	tol := xiToleranceLeak(c.nomLeakUW, 0)
	feasibleBoth, infeasibleBoth := 0, 0
	for _, xi := range []float64{math.Inf(1), 0} {
		for _, f := range []float64{1, 0.99, 0.97, 0.95, 0.93, 0.91, 0.9, 0.87} {
			tau := f * c.Golden.MCT
			lazy := newCutSolverCompiled(c, opt)
			objL, okL, errL := lazy.solveTau(ctx, tau, xi)
			whole := newCutSolverCompiled(full, opt)
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
			for r := c.NVar; r < full.fixedA.M; r++ {
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
