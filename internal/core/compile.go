// Compile stage of the DMopt pipeline (compile → solve → signoff).
//
// Tables IV-VI and the dose sweeps solve many QP/QCP variants over one
// (design, grid, layers) formulation: the grid geometry, the gate→grid
// map, the objective coefficients, the delay sensitivity rows and the
// box/smoothness constraint pattern are all invariant across those
// runs.  CompileCtx builds that invariant state once into an immutable
// *Compiled artifact; the run views in qp_run.go / qcp_run.go / cuts.go
// borrow it together with per-run mutable state (τ bounds, cut pool,
// warm-started solver).
//
// Ownership rule: a Compiled is never mutated after CompileCtx returns.
// Runs copy what they need to mutate (the cut engine copies the
// objective diagonal; buildProblem copies the bound vectors) and lend
// the shared CSRs to qp.NewSolver, which clones its inputs.  This is
// what makes one artifact shareable across concurrent jobs — the
// artifact cache behind api.Prepare keeps Compiled values exactly like
// designs and goldens.
package core

import (
	"context"
	"fmt"
	"math"
	"time"
	"unsafe"

	"repro/internal/dosemap"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/sta"
	"repro/internal/tech"
)

// CompileOptions is the subset of Options that shapes the compiled
// formulation.  It is a comparable value type so callers can use it
// directly as a cache key.
type CompileOptions struct {
	// G is the grid granularity in µm.
	G float64
	// Delta is the dose smoothness bound δ in percent.
	Delta float64
	// DoseLo, DoseHi are the equipment correction range in percent.
	DoseLo, DoseHi float64
	// BothLayers enables simultaneous poly+active optimization.
	BothLayers bool
	// DoseOff removes the dose actuator block (bias-only formulation).
	DoseOff bool
	// BiasGridUm adds the body-bias actuator block when > 0: the pitch
	// in µm of the square bias-domain tiling.
	BiasGridUm float64
	// BiasLo, BiasHi are the per-domain body-bias box in V.
	BiasLo, BiasHi float64
}

// CompileOptions projects the run options onto the compile key: the
// fields every solve over the same formulation must agree on.  The bias
// box defaults are materialized here so that runs and compiles keyed on
// the projection always agree; a disabled bias actuator leaves all bias
// fields zero, keeping legacy cache keys byte-identical.
func (o Options) CompileOptions() CompileOptions {
	co := CompileOptions{
		G: o.G, Delta: o.Delta,
		DoseLo: o.DoseLo, DoseHi: o.DoseHi,
		BothLayers: o.BothLayers, DoseOff: o.DoseOff,
	}
	if o.useBias() {
		co.BiasGridUm = o.BiasGridUm
		co.BiasLo, co.BiasHi = o.BiasLo, o.BiasHi
		if co.BiasLo == 0 && co.BiasHi == 0 {
			co.BiasLo, co.BiasHi = DefaultBiasLo, DefaultBiasHi
		}
	}
	return co
}

// Compiled is the immutable per-(design, grid, layers) artifact shared
// by every solve stage.  See the package comment of this file for the
// ownership rules.
type Compiled struct {
	// Golden is the nominal analysis the formulation linearizes around.
	Golden *sta.Result
	// Model holds the fitted per-instance delay/leakage coefficients.
	Model *Model
	// Opts is the compile key this artifact was built for; runs with a
	// different projection are rejected.
	Opts CompileOptions

	// Grid is the dose-map geometry; NG its cell count per layer and
	// NVar the total actuator-variable count across all blocks (NG or
	// 2·NG dose variables, plus one variable per bias domain).
	Grid     dosemap.Grid
	NG, NVar int

	// Blocks is the ordered actuator variable layout: dose layer blocks
	// first (offsets 0 and NG), then the bias block.  Every stage that
	// walks variables — fixed rows, cut assembly, clamping, extraction —
	// indexes through it instead of assuming nVar == nGrids×layers.
	Blocks []ActuatorBlock

	gridOf []int // gate → flat grid index, or -1 for ports
	order  []int // frozen topological order of the circuit

	// Body-bias actuator state (absent: nBias == 0, biasOff == -1).
	domainOf []int   // gate → bias domain, or -1
	nBias    int     // occupied bias domains
	biasOff  int     // variable offset of the bias block
	kGamma   float64 // dVth per volt of forward bias is -kGamma

	// Per-gate delay sensitivity rows, concatenated over all blocks in
	// block order (CSR over gates): d(delay_id)/d(x_col).  Values are
	// precomputed (A·Ds, B·Ds, DB) so the cut engine's evaluations stay
	// bit-identical to the historical inline products.
	sensPtr []int
	sensCol []int
	sensVal []float64

	// Actuator-variable objective: ½·cutPD_j·x_j² + doseQ_j·x_j is the
	// Eq. 2 Δleakage model of leakTerms, with the active-layer
	// regularization the cut engine needs added to cutPD.
	doseQ, cutPD []float64

	// Fixed constraint rows of the cut engine, all of which start in
	// every cut QP.  A base compile holds one box row per actuator
	// variable, block by block.  The dose smoothness rows (Eq. 4/9) are
	// separated like path cuts: solveTauGroup walks the grid's stencil
	// (dosemap.Grid.EachPair) against each clamped iterate and pools the
	// violated pairs, so the QP holds only the smoothness rows that bind
	// or nearly bind.  The wafer's consensus fields hold every
	// smoothness row after the box rows instead (withSmoothRows) and set
	// smoothFixed, which turns that scan off; its uncoupled fields
	// separate like any single-field QP.  Pooled rows are appended
	// after the fixed rows, so dual indices survive pool growth.
	fixedA         *qp.CSR
	fixedL, fixedU []float64
	smoothFixed    bool

	// fastMCT is the linear-model MCT at the fastest reachable dose —
	// the QCP bisection's lower bound.
	fastMCT float64
	// snapMarginNW is the expected leakage cost of timing-safe dose
	// snapping; the QCP subtracts it from its budget ξ.
	snapMarginNW float64
	// nomLeakUW is the zero-dose leakage in µW.
	nomLeakUW float64
}

// ApproxBytes is the artifact's resident size as the cache counts it:
// the bytes of every slice it holds, the fixed-row CSR included.  Slice
// headers, scalars and the borrowed Golden/Model are left out — the
// cache layers account for those stages separately.
func (c *Compiled) ApproxBytes() int64 {
	return sliceBytes(c.Blocks) + sliceBytes(c.gridOf) + sliceBytes(c.order) +
		sliceBytes(c.domainOf) + sliceBytes(c.sensPtr) + sliceBytes(c.sensCol) +
		sliceBytes(c.sensVal) + sliceBytes(c.doseQ) + sliceBytes(c.cutPD) +
		sliceBytes(c.fixedA.RowPtr) + sliceBytes(c.fixedA.Col) + sliceBytes(c.fixedA.Val) +
		sliceBytes(c.fixedL) + sliceBytes(c.fixedU)
}

// sliceBytes is the size of s's elements.
func sliceBytes[T any](s []T) int64 {
	var z T
	return int64(len(s)) * int64(unsafe.Sizeof(z))
}

// check validates that a request carries an artifact and that its run
// options match the artifact's compile key.
func (c *Compiled) check(opt Options) error {
	if c == nil {
		return fmt.Errorf("core: request needs a compiled formulation")
	}
	if co := opt.CompileOptions(); co != c.Opts {
		return fmt.Errorf("core: options %+v do not match compiled artifact %+v", co, c.Opts)
	}
	return nil
}

// CompileCtx builds the shared formulation artifact for (golden, model)
// under the given compile options.  Every compile counts as a
// core/compile_misses tick (cache layers above report hits); the build
// time lands in core/compile_ns.
func CompileCtx(ctx context.Context, golden *sta.Result, model *Model, co CompileOptions) (*Compiled, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: compile canceled: %w", err)
	}
	start := time.Now()
	ctx, sp := obs.Start(ctx, "core/compile")
	defer sp.End()

	in := golden.In
	grid, err := dosemap.NewGrid(in.Pl.ChipW, in.Pl.ChipH, co.G)
	if err != nil {
		return nil, err
	}
	order, err := in.Circ.TopoOrder()
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Golden: golden, Model: model, Opts: co,
		Grid: grid, NG: grid.Cells(),
		gridOf: gateGrid(in, grid), order: order,
		biasOff: -1,
	}

	// Actuator block layout: dose layers first, then bias domains.
	if co.DoseOff && co.BiasGridUm <= 0 {
		return nil, errNoActuators
	}
	if co.DoseOff && co.BothLayers {
		return nil, fmt.Errorf("core: BothLayers requires the dose actuator")
	}
	doseVars := 0
	if !co.DoseOff {
		doseVars = c.NG
		if co.BothLayers {
			doseVars = 2 * c.NG
		}
	}
	if co.BiasGridUm > 0 {
		if co.BiasLo > co.BiasHi {
			return nil, fmt.Errorf("core: bias box [%g, %g] is empty", co.BiasLo, co.BiasHi)
		}
		if model.DB == nil || model.AlphaB == nil || model.BetaB == nil {
			return nil, fmt.Errorf("core: bias actuator enabled but model has no fitted bias coefficients")
		}
		c.domainOf, c.nBias = in.Pl.Regions(co.BiasGridUm)
		if c.nBias == 0 {
			return nil, fmt.Errorf("core: bias tiling at %g µm produced no occupied domains", co.BiasGridUm)
		}
		c.biasOff = doseVars
		c.kGamma = in.Node.KGammaBody
	}
	c.NVar = doseVars + c.nBias
	if !co.DoseOff {
		c.Blocks = append(c.Blocks, ActuatorBlock{Name: "dose-poly", Off: 0, N: c.NG, Lo: co.DoseLo, Hi: co.DoseHi})
		if co.BothLayers {
			c.Blocks = append(c.Blocks, ActuatorBlock{Name: "dose-active", Off: c.NG, N: c.NG, Lo: co.DoseLo, Hi: co.DoseHi})
		}
	}
	if c.nBias > 0 {
		c.Blocks = append(c.Blocks, ActuatorBlock{Name: "bias", Off: c.biasOff, N: c.nBias, Lo: co.BiasLo, Hi: co.BiasHi})
	}

	// Objective diagonal and linear term over the actuator variables.
	c.cutPD, c.doseQ = c.leakTerms()
	if co.BothLayers {
		// The active-layer objective is exactly linear (leakage is linear
		// in gate width), which leaves those variables without curvature
		// and slows the first-order QP solver badly.  A tiny quadratic
		// regularization — three orders below the poly curvature — fixes
		// conditioning while perturbing the optimum negligibly.
		reg := 0.0
		for g := 0; g < c.NG; g++ {
			if c.cutPD[g] > reg {
				reg = c.cutPD[g]
			}
		}
		reg *= 1e-2
		if reg <= 0 {
			reg = 1e-6
		}
		for g := 0; g < c.NG; g++ {
			c.cutPD[c.NG+g] += reg
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: compile canceled: %w", err)
	}

	// Per-gate delay sensitivity rows concatenated over blocks, counted
	// first so each slice is allocated once at its exact length.
	ds := tech.DoseSensitivity
	nGates := in.Circ.NumGates()
	perDose := 1
	if co.BothLayers {
		perDose = 2
	}
	nSens := 0
	for id := 0; id < nGates; id++ {
		if !co.DoseOff && c.gridOf[id] >= 0 {
			nSens += perDose
		}
		if c.nBias > 0 && c.domainOf[id] >= 0 {
			nSens++
		}
	}
	c.sensPtr = make([]int, nGates+1)
	c.sensCol = make([]int, 0, nSens)
	c.sensVal = make([]float64, 0, nSens)
	for id := 0; id < nGates; id++ {
		c.sensPtr[id] = len(c.sensCol)
		if !co.DoseOff {
			if g := c.gridOf[id]; g >= 0 {
				c.sensCol = append(c.sensCol, g)
				c.sensVal = append(c.sensVal, model.A[id]*ds)
				if co.BothLayers {
					c.sensCol = append(c.sensCol, c.NG+g)
					c.sensVal = append(c.sensVal, model.B[id]*ds)
				}
			}
		}
		if c.nBias > 0 {
			if dom := c.domainOf[id]; dom >= 0 {
				c.sensCol = append(c.sensCol, c.biasOff+dom)
				c.sensVal = append(c.sensVal, model.DB[id])
			}
		}
	}
	c.sensPtr[nGates] = len(c.sensCol)

	// Fixed constraint rows of the cut engine: the box rows.
	c.fixedA, c.fixedL, c.fixedU = boxRows(c.NVar, c.Blocks)

	// The QCP lower bound.
	_, c.fastMCT = linearArrivalsOrder(golden, order, nil, func(id int) float64 {
		if in.Masters[id] == nil {
			return 0
		}
		return minDelayDeltaFor(model, co, id)
	})

	c.snapMarginNW = snapLeakMargin(model)
	c.nomLeakUW = nominalLeak(golden)

	obs.Add(ctx, "core/compile_misses", 1)
	obs.Add(ctx, "core/compile_ns", time.Since(start).Nanoseconds())
	obs.Set(ctx, "core/actuator_blocks", float64(len(c.Blocks)))
	if c.nBias > 0 {
		obs.Set(ctx, "core/bias_domains", float64(c.nBias))
	}
	return c, nil
}

// leakTerms returns the Eq. 2 Δleakage model over the actuator
// variables, ½·pd_j·x_j² + q_j·x_j, summed per variable over its gates:
// the dose terms on each gate's grid cell (the active layer's are
// linear), the body-bias terms on its domain.  CompileCtx regularizes pd
// into cutPD; the node-assembly test oracle solves pd as it stands.
func (c *Compiled) leakTerms() (pd, q []float64) {
	in, model := c.Golden.In, c.Model
	ds := tech.DoseSensitivity
	pd = make([]float64, c.NVar)
	q = make([]float64, c.NVar)
	if c.hasDose() {
		for id := range in.Circ.Gates {
			g := c.gridOf[id]
			if g < 0 {
				continue
			}
			pd[g] += 2 * model.Alpha[id] * ds * ds
			q[g] += model.Beta[id] * ds
			if c.Opts.BothLayers {
				q[c.NG+g] += model.Gamma[id] * ds
			}
		}
	}
	if c.nBias > 0 {
		// Bias leakage model per gate: AlphaB·b² + BetaB·b, aggregated
		// per shared domain variable.
		for id := range in.Circ.Gates {
			dom := c.domainOf[id]
			if dom < 0 {
				continue
			}
			pd[c.biasOff+dom] += 2 * model.AlphaB[id]
			q[c.biasOff+dom] += model.BetaB[id]
		}
	}
	return pd, q
}

// boxRows returns the box rows over the actuator blocks, one per
// variable in block order (Eq. 3/8 for dose, the bias voltage box for
// bias domains): the identity over the nVar variables the blocks tile,
// with each block's bounds.
func boxRows(nVar int, blocks []ActuatorBlock) (*qp.CSR, []float64, []float64) {
	a := &qp.CSR{M: nVar, N: nVar,
		RowPtr: make([]int, nVar+1), Col: make([]int, nVar), Val: make([]float64, nVar)}
	l := make([]float64, 0, nVar)
	u := make([]float64, 0, nVar)
	for _, b := range blocks {
		for k := 0; k < b.N; k++ {
			l = append(l, b.Lo)
			u = append(u, b.Hi)
		}
	}
	for r := 0; r < nVar; r++ {
		a.RowPtr[r+1], a.Col[r], a.Val[r] = r+1, r, 1
	}
	return a, l, u
}

// gateGrid maps every cell to its flat grid index.
func gateGrid(in sta.Input, grid dosemap.Grid) []int {
	g := make([]int, in.Circ.NumGates())
	for id, gate := range in.Circ.Gates {
		if gate.Kind != netlist.Comb && gate.Kind != netlist.Seq {
			g[id] = -1
			continue
		}
		i, j := grid.Index(in.Pl.X[id], in.Pl.Y[id])
		g[id] = grid.Flat(i, j)
	}
	return g
}

// minDelayDeltaFor returns the gate's largest possible delay decrease
// (most negative delta) over the active actuator boxes.
func minDelayDeltaFor(model *Model, co CompileOptions, id int) float64 {
	ds := tech.DoseSensitivity
	v := 0.0
	if !co.DoseOff {
		v = model.A[id] * ds * co.DoseHi
		if co.BothLayers {
			v += model.B[id] * ds * co.DoseLo
		}
	}
	if co.BiasGridUm > 0 && model.DB != nil {
		v += model.DB[id] * co.BiasHi
	}
	return math.Min(v, 0)
}

// linearArrivalsOrder runs a forward pass, in the given topological
// order, over the frozen golden arc delays with the given per-gate delay
// deltas, returning per-gate output arrivals and the resulting MCT.  This
// is the optimizer's linear timing model (Eq. 5/10) evaluated at a
// concrete dose assignment.  The arrivals are written into buf, grown
// as needed (nil allocates), so a caller that evaluates the model every
// cut round keeps one buffer.
func linearArrivalsOrder(golden *sta.Result, order []int, buf []float64, delta func(id int) float64) ([]float64, float64) {
	in := golden.In
	n := in.Circ.NumGates()
	arr := append(buf[:0], make([]float64, n)...) // zeroed, in place when buf fits
	// Launches first (order does not cover FF-out edges).
	for id, g := range in.Circ.Gates {
		if g.Kind == netlist.Seq {
			arr[id] = golden.AOut[id] + delta(id)
		}
	}
	mct := 0.0
	for _, id := range order {
		g := in.Circ.Gates[id]
		switch g.Kind {
		case netlist.Comb:
			best := 0.0
			for _, fi := range g.Fanins {
				if a := arr[fi] + golden.ArcDelay(fi, id) + delta(id); a > best {
					best = a
				}
			}
			arr[id] = best
		case netlist.PO, netlist.Seq:
			best := 0.0
			for _, fi := range g.Fanins {
				if a := arr[fi] + golden.ArcDelay(fi, id); a > best {
					best = a
				}
			}
			if g.Kind == netlist.PO {
				arr[id] = best
				if best > mct {
					mct = best
				}
			} else if e := best + golden.EndWeight(id); e > mct {
				mct = e
			}
		}
	}
	return arr, mct
}
