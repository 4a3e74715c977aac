// Node-based assembly: the test oracle for the cut engine.  It states
// the Eq. 5/10 program verbatim, with one arrival variable per
// timing-relevant gate, and solves it as a single QP.  The cut engine
// solves the same program with path cuts generated on demand, so the
// two must agree on the objective (TestCutsVsNodeAgree); the qp-node
// case of TestDoseOnlyRegressionLock pins the oracle's own bits.
package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/dosemap"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/qp"
	"repro/internal/sta"
	"repro/internal/tech"
)

// solveQPNode is the node oracle on the cut engine's ADMM budget.
func solveQPNode(ctx context.Context, req QPRequest) (*Result, error) {
	return solveNode(ctx, req, cutQPSettings())
}

// solveNode is SolveQP on the node-based assembly: minimize Δleakage
// subject to MCT ≤ req.TauPs in one ADMM solve under set, then extract,
// predict and sign off like the cut engine does.
func solveNode(ctx context.Context, req QPRequest, set qp.Settings) (*Result, error) {
	c, err := req.compiled(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	opt := req.Opt.normalized()
	if err := c.check(opt); err != nil {
		return nil, err
	}
	tau := req.TauPs
	prob, nCols := assembleNode(c, opt, tau)
	solver, err := qp.NewSolver(prob, set)
	if err != nil {
		return nil, err
	}
	res, err := solver.SolveCtx(ctx)
	if err != nil {
		return nil, err
	}
	if res.Status == qp.PrimalInfeasible {
		return nil, fmt.Errorf("core: QP infeasible at τ = %.1f ps", tau)
	}
	asn := Assignment{Layers: nodeLayers(c, opt, res.X), BiasV: nodeBias(c, res.X)}
	predMCT, predLeak := c.predict(asn)
	golden, err := signoff(ctx, c, opt, asn)
	if err != nil {
		return nil, err
	}
	return &Result{
		Layers:          asn.Layers,
		PredMCT:         predMCT,
		PredDeltaLeakNW: predLeak,
		Nominal:         Eval{MCTps: c.Golden.MCT, LeakUW: c.nomLeakUW},
		Golden:          golden,
		Probes:          1,
		Rows:            prob.A.M,
		Cols:            nCols,
		BiasV:           asn.BiasV,
		BiasDomains:     c.nBias,
		Status:          res.Status.String(),
		Runtime:         time.Since(start),
	}, nil
}

// assembleNode builds the node-based QP at clock period tau and returns
// it with its variable count.  A gate gets an arrival variable only when
// its worst-case (slowest reachable actuator setting) path delay reaches
// tau − 1 ps; below that it can never constrain the clock period.
func assembleNode(c *Compiled, opt Options, tau float64) (*qp.Problem, int) {
	golden := c.Golden
	in := golden.In
	nG := c.NG

	worst := func(id int) float64 { return maxDelayDeltaFor(c.Model, c.Opts, id) }
	worstArr, _ := linearArrivalsOrder(golden, c.order, worst)
	worstSuf := linearSuffixOrder(golden, c.order, worst)
	pruneThresh := tau - 1
	arrIdx := make([]int, in.Circ.NumGates())
	nVar := c.NVar
	for id, g := range in.Circ.Gates {
		arrIdx[id] = -1
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		if math.IsInf(worstSuf[id], -1) {
			continue // dead end: no path to an endpoint
		}
		if worstArr[id]+worstSuf[id] >= pruneThresh {
			arrIdx[id] = nVar
			nVar++
		}
	}

	// Objective: the compiled dose terms widened with zero-cost arrival
	// variables.
	q := make([]float64, nVar)
	copy(q, c.doseQ)
	ptr := qp.NewTriplet(nVar, nVar)
	for j, v := range c.dosePD {
		if v != 0 {
			ptr.Add(j, j, v)
		}
	}

	// Constraints: collect entries first (the row count is only known at
	// the end), then compile into CSR.
	type entry struct {
		r, c int
		v    float64
	}
	var entries []entry
	var l, u []float64
	addRow := func(lo, hi float64) int {
		l = append(l, lo)
		u = append(u, hi)
		return len(l) - 1
	}
	add := func(r, c int, v float64) { entries = append(entries, entry{r, c, v}) }
	inf := math.Inf(1)

	nLayers := 1
	if opt.BothLayers {
		nLayers = 2
	}
	if opt.DoseOff {
		nLayers = 0
	}
	// Box (Eq. 3/8) per actuator block: dose blocks take the run range
	// (identical to the compile key), the bias block its compiled box.
	for _, b := range c.Blocks {
		lo, hi := opt.DoseLo, opt.DoseHi
		if b.Name == "bias" {
			lo, hi = b.Lo, b.Hi
		}
		for k := 0; k < b.N; k++ {
			add(addRow(lo, hi), b.Off+k, 1)
		}
	}
	// Smoothness (Eq. 4/9): right, down, and down-right diagonal pairs
	// (dose layers only; bias domains have no smoothness coupling).
	grid := c.Grid
	for layer := 0; layer < nLayers; layer++ {
		off := layer * nG
		for i := 0; i < grid.M; i++ {
			for j := 0; j < grid.N; j++ {
				a := grid.Flat(i, j)
				var pairs [][2]int
				if j+1 < grid.N {
					pairs = append(pairs, [2]int{a, grid.Flat(i, j+1)})
				}
				if i+1 < grid.M {
					pairs = append(pairs, [2]int{a, grid.Flat(i+1, j)})
				}
				if i+1 < grid.M && j+1 < grid.N {
					pairs = append(pairs, [2]int{a, grid.Flat(i+1, j+1)})
				}
				for _, pr := range pairs {
					r := addRow(-opt.Delta, opt.Delta)
					add(r, off+pr[0], 1)
					add(r, off+pr[1], -1)
				}
			}
		}
	}
	// Timing (Eq. 5/10).  Each gate's actuator sensitivities enter
	// through its compiled concatenated row (dose layers, then bias
	// domain), negated onto the arrival inequality.
	sens := func(r, id int) {
		for k := c.sensPtr[id]; k < c.sensPtr[id+1]; k++ {
			add(r, c.sensCol[k], -c.sensVal[k])
		}
	}
	for id, g := range in.Circ.Gates {
		ai := arrIdx[id]
		if ai < 0 {
			continue
		}
		switch g.Kind {
		case netlist.Seq:
			// Launch: a_s ≥ clk2q_nom + A·Ds·dP (+ B·Ds·dA) (+ DB·b).
			r := addRow(golden.AOut[id], inf)
			add(r, ai, 1)
			sens(r, id)
		case netlist.Comb:
			for _, fi := range g.Fanins {
				arc := golden.ArcDelay(fi, id)
				r := addRow(0, inf) // filled below
				add(r, ai, 1)
				sens(r, id)
				if fj := arrIdx[fi]; fj >= 0 {
					add(r, fj, -1)
					l[r] = arc
				} else {
					// Excluded driver: conservative constant arrival.
					l[r] = arc + worstArr[fi]
				}
			}
		}
	}
	// Endpoint rows: a_r ≤ τ − wire − endWeight for every endpoint fanin.
	for id, g := range in.Circ.Gates {
		if g.Kind != netlist.PO && g.Kind != netlist.Seq {
			continue
		}
		for _, fi := range g.Fanins {
			fj := arrIdx[fi]
			if fj < 0 {
				continue // pruned: cannot reach τ by construction
			}
			off := golden.ArcDelay(fi, id) + golden.EndWeight(id)
			add(addRow(-inf, tau-off), fj, 1)
		}
	}

	tr := qp.NewTriplet(len(l), nVar)
	for _, e := range entries {
		tr.Add(e.r, e.c, e.v)
	}
	return &qp.Problem{P: ptr.Compile(), Q: q, A: tr.Compile(), L: l, U: u}, nVar
}

// maxDelayDeltaFor returns the gate's largest possible delay increase
// over the active actuator boxes (the conservative pruning bound).
func maxDelayDeltaFor(model *Model, co CompileOptions, id int) float64 {
	ds := tech.DoseSensitivity
	v := 0.0
	if !co.DoseOff {
		// A·Ds·d maximal at d = DoseLo (Ds<0, A≥0); B·Ds·d maximal at DoseHi.
		v = model.A[id] * ds * co.DoseLo
		if co.BothLayers {
			v += model.B[id] * ds * co.DoseHi
		}
	}
	if co.BiasGridUm > 0 && model.DB != nil {
		// DB ≤ 0: delay grows most at the deepest reverse bias.
		v += model.DB[id] * co.BiasLo
	}
	return math.Max(v, 0)
}

// linearSuffixOrder computes, per gate, the largest downstream delay to
// any endpoint under the given per-gate deltas (the path-search suffix
// on the linear model), over a precomputed topological order.
func linearSuffixOrder(golden *sta.Result, order []int, delta func(id int) float64) []float64 {
	in := golden.In
	suf := make([]float64, in.Circ.NumGates())
	for i := range suf {
		suf[i] = math.Inf(-1)
	}
	relax := func(id int) {
		best := math.Inf(-1)
		for _, fo := range in.Circ.Gates[id].Fanouts {
			arc := golden.ArcDelay(id, fo)
			var v float64
			switch in.Circ.Gates[fo].Kind {
			case netlist.PO, netlist.Seq:
				v = arc + golden.EndWeight(fo)
			default:
				if math.IsInf(suf[fo], -1) {
					continue
				}
				v = arc + delta(fo) + suf[fo]
			}
			if v > best {
				best = v
			}
		}
		suf[id] = best
	}
	for i := len(order) - 1; i >= 0; i-- {
		if in.Circ.Gates[order[i]].Kind != netlist.Seq {
			relax(order[i])
		}
	}
	for id, g := range in.Circ.Gates {
		if g.Kind == netlist.Seq {
			relax(id)
		}
	}
	return suf
}

// nodeLayers converts a node-assembly solution into legalized dose maps
// (a zero poly map when the dose actuator is off).
func nodeLayers(c *Compiled, opt Options, x []float64) dosemap.Layers {
	poly := dosemap.NewMap(c.Grid)
	if opt.DoseOff {
		return dosemap.Layers{Poly: poly}
	}
	copy(poly.D, x[:c.NG])
	poly.Legalize(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
	layers := dosemap.Layers{Poly: poly}
	if opt.BothLayers {
		act := dosemap.NewMap(c.Grid)
		copy(act.D, x[c.NG:2*c.NG])
		act.Legalize(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
		layers.Active = act
	}
	return layers
}

// nodeBias copies the bias-block variables out of a node-assembly
// solution, clamped onto the compiled bias box (nil when bias is off).
func nodeBias(c *Compiled, x []float64) []float64 {
	if c.nBias == 0 {
		return nil
	}
	bv := make([]float64, c.nBias)
	for d := range bv {
		bv[d] = clamp(x[c.biasOff+d], c.Opts.BiasLo, c.Opts.BiasHi)
	}
	return bv
}

// TestCutsVsNodeAgree cross-validates the cut engine against the node
// oracle in every actuator mode: they target the identical mathematical
// program, so their objectives must agree (the node-based ADMM carries
// a looser feasibility floor, hence the generous tolerance).
func TestCutsVsNodeAgree(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	cases := []struct {
		name          string
		both, doseOff bool
		biasGridUm    float64
	}{
		{"poly", false, false, 0},
		{"both-layers", true, false, 0},
		{"joint", false, false, 20},
		{"bias-only", false, true, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model, err := FitModelCtx(context.Background(), golden, tc.both, 0)
			if err != nil {
				t.Fatal(err)
			}
			opt := DefaultOptions()
			opt.BothLayers = tc.both
			opt.DoseOff = tc.doseOff
			opt.BiasGridUm = tc.biasGridUm
			req := QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT}
			rc, err := SolveQP(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			rn, err := solveQPNode(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if rc.PredDeltaLeakNW >= 0 || rn.PredDeltaLeakNW >= 0 {
				t.Fatalf("both engines must reduce leakage: cuts %v, node %v", rc.PredDeltaLeakNW, rn.PredDeltaLeakNW)
			}
			rel := math.Abs(rc.PredDeltaLeakNW-rn.PredDeltaLeakNW) / math.Abs(rc.PredDeltaLeakNW)
			if rel > 0.10 {
				t.Errorf("engines disagree: cuts %v vs node %v nW (%.1f%%)",
					rc.PredDeltaLeakNW, rn.PredDeltaLeakNW, rel*100)
			}
			t.Logf("objective: cuts %.1f nW, node %.1f nW (%.2f%% apart)", rc.PredDeltaLeakNW, rn.PredDeltaLeakNW, rel*100)
		})
	}
}

// BenchmarkAblationEngineCuts and ...EngineNode compare the cut engine
// against the node oracle on the same QP instance; each reports the
// model objective it reached as dleak_nW.
func BenchmarkAblationEngineCuts(b *testing.B) {
	benchEngine(b, SolveQP, DefaultOptions())
}

func BenchmarkAblationEngineNode(b *testing.B) {
	solve := func(ctx context.Context, req QPRequest) (*Result, error) {
		return solveNode(ctx, req, qp.DefaultSettings())
	}
	benchEngine(b, solve, DefaultOptions())
}

func benchEngine(b *testing.B, solve func(context.Context, QPRequest) (*Result, error), opt Options) {
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.06))
	if err != nil {
		b.Fatal(err)
	}
	golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	req := QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT}
	b.ResetTimer()
	var r *Result
	for i := 0; i < b.N; i++ {
		if r, err = solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.PredDeltaLeakNW, "dleak_nW")
}
