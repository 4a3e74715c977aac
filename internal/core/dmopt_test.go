package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sta"
)

// smallGolden generates a small design and its golden analysis once per
// test binary (the generator and STA are deterministic).
func smallGolden(t *testing.T, scale float64) (*gen.Design, *sta.Result) {
	t.Helper()
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	in := sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
	r, err := sta.AnalyzeCtx(context.Background(), in, sta.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d, r
}

// mustCompile builds the formulation a solve with opt reads from
// (golden, model).
func mustCompile(t testing.TB, golden *sta.Result, model *Model, opt Options) *Compiled {
	t.Helper()
	c, err := CompileCtx(context.Background(), golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFitModelSigns(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	for _, both := range []bool{false, true} {
		m, err := FitModelCtx(context.Background(), golden, both, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Sanity(); err != nil {
			t.Errorf("bothLayers=%v: %v", both, err)
		}
		if m.MaxDelaySSR <= 0 || m.MaxLeakSSR <= 0 {
			t.Errorf("bothLayers=%v: SSR should be positive (%v, %v)", both, m.MaxDelaySSR, m.MaxLeakSSR)
		}
		// Ports must stay zero.
		for id, master := range golden.In.Masters {
			if master == nil && (m.A[id] != 0 || m.Beta[id] != 0) {
				t.Fatalf("port %d has nonzero coefficients", id)
			}
		}
	}
	// The two-variable fit has more parameters and a larger residual,
	// mirroring the paper's 0.0005 vs 0.0101 observation.
	m1, _ := FitModelCtx(context.Background(), golden, false, 0)
	m2, _ := FitModelCtx(context.Background(), golden, true, 0)
	if m2.MaxDelaySSR < m1.MaxDelaySSR {
		t.Logf("note: 2-var delay SSR %v < 1-var %v (acceptable, shape-dependent)", m2.MaxDelaySSR, m1.MaxDelaySSR)
	}
}

func TestModelTracksGoldenUniformDose(t *testing.T) {
	// The linear/quadratic model evaluated at a uniform dose must agree
	// with golden STA/power within a few percent over the dose range.
	_, golden := smallGolden(t, 0.03)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := golden.In
	n := in.Circ.NumGates()
	nomLeak := power.Total(in.Masters, nil, nil, nil)
	order, err := in.Circ.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, dose := range []float64{-4, -2, 2, 4} {
		dP := make([]float64, n)
		dL := make([]float64, n)
		for i := range dP {
			if in.Masters[i] != nil {
				dP[i] = dose
				dL[i] = -2 * dose
			}
		}
		// Leakage.
		predDelta := model.DeltaLeak(dP, nil) / power.NWPerUW
		goldDelta := power.Total(in.Masters, dL, nil, nil) - nomLeak
		// The quadratic leakage model is an acknowledged approximation of
		// the exponential (paper footnote 4): allow a ~25% mid-range gap.
		if math.Abs(predDelta-goldDelta) > 0.25*math.Abs(goldDelta)+0.01*nomLeak {
			t.Errorf("dose %v: Δleak model %v vs golden %v µW", dose, predDelta, goldDelta)
		}
		// Timing.
		_, predMCT := linearArrivalsOrder(golden, order, nil, func(id int) float64 {
			return model.A[id] * (-2) * dP[id]
		})
		gr, err := sta.AnalyzeCtx(context.Background(), in, golden.Cfg, &sta.Perturb{DL: dL})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(predMCT-gr.MCT) > 0.03*gr.MCT {
			t.Errorf("dose %v: MCT model %v vs golden %v", dose, predMCT, gr.MCT)
		}
	}
}

func TestDMoptQPReducesLeakage(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	res, err := SolveQP(context.Background(), QPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	// Equipment feasibility.
	if err := res.Layers.Poly.CheckRange(opt.DoseLo-0.01, opt.DoseHi+0.01); err != nil {
		t.Error(err)
	}
	if err := res.Layers.Poly.CheckSmooth(opt.Delta + 0.02); err != nil {
		t.Error(err)
	}
	// Leakage must drop materially at unchanged timing.
	if res.Golden.LeakUW >= res.Nominal.LeakUW {
		t.Errorf("QP did not reduce leakage: %v → %v µW", res.Nominal.LeakUW, res.Golden.LeakUW)
	}
	imp := 1 - res.Golden.LeakUW/res.Nominal.LeakUW
	if imp < 0.02 {
		t.Errorf("leakage improvement only %.2f%%", imp*100)
	}
	if res.Golden.MCTps > res.Nominal.MCTps*1.01 {
		t.Errorf("QP degraded timing: %v → %v ps", res.Nominal.MCTps, res.Golden.MCTps)
	}
	if res.PredDeltaLeakNW >= 0 {
		t.Errorf("predicted Δleak %v should be negative", res.PredDeltaLeakNW)
	}
	t.Logf("QP: MCT %.1f→%.1f ps, leak %.1f→%.1f µW (%.1f%%), vars=%d rows=%d status=%s",
		res.Nominal.MCTps, res.Golden.MCTps, res.Nominal.LeakUW, res.Golden.LeakUW, imp*100,
		res.Cols, res.Rows, res.Status)
}

func TestDMoptQCPImprovesTiming(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	res, err := SolveQCP(context.Background(), QCPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Layers.Poly.CheckRange(opt.DoseLo-0.01, opt.DoseHi+0.01); err != nil {
		t.Error(err)
	}
	if err := res.Layers.Poly.CheckSmooth(opt.Delta + 0.02); err != nil {
		t.Error(err)
	}
	if res.Golden.MCTps >= res.Nominal.MCTps {
		t.Errorf("QCP did not improve MCT: %v → %v", res.Nominal.MCTps, res.Golden.MCTps)
	}
	// Leakage must not grow beyond the ξ=0 budget (plus snap noise).
	if res.Golden.LeakUW > res.Nominal.LeakUW*1.02 {
		t.Errorf("QCP leakage grew: %v → %v µW", res.Nominal.LeakUW, res.Golden.LeakUW)
	}
	if res.Probes < 2 {
		t.Errorf("bisection did not iterate (probes=%d)", res.Probes)
	}
	imp := 1 - res.Golden.MCTps/res.Nominal.MCTps
	t.Logf("QCP: MCT %.1f→%.1f ps (%.2f%%), leak %.1f→%.1f µW, probes=%d",
		res.Nominal.MCTps, res.Golden.MCTps, imp*100, res.Nominal.LeakUW, res.Golden.LeakUW, res.Probes)
}

func TestGranularityOrdering(t *testing.T) {
	// Finer grids must give at least as much leakage improvement
	// (Section V: "the finer the rectangular grids, the greater the
	// improvement").
	_, golden := smallGolden(t, 0.05)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	imp := map[float64]float64{}
	for _, g := range []float64{5, 30} {
		opt := DefaultOptions()
		opt.G = g
		res, err := SolveQP(context.Background(), QPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt, TauPs: golden.MCT})
		if err != nil {
			t.Fatal(err)
		}
		imp[g] = 1 - res.Golden.LeakUW/res.Nominal.LeakUW
	}
	if imp[5] < imp[30]-0.005 {
		t.Errorf("finer grid should win: 5 µm %.2f%% vs 30 µm %.2f%%", imp[5]*100, imp[30]*100)
	}
	t.Logf("granularity: 5 µm %.2f%%, 30 µm %.2f%%", imp[5]*100, imp[30]*100)
}

func TestDMoptQPErrors(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	comp := mustCompile(t, golden, model, opt)
	if _, err := SolveQP(context.Background(), QPRequest{Compiled: comp, Opt: opt, TauPs: 0}); err == nil {
		t.Error("non-positive tau should fail")
	}
	if _, err := SolveQP(context.Background(), QPRequest{Opt: opt, TauPs: golden.MCT}); err == nil {
		t.Error("a request without a compiled formulation should fail")
	}
	bad := DefaultOptions()
	bad.G = -1
	if _, err := CompileCtx(context.Background(), golden, model, bad.CompileOptions()); err == nil {
		t.Error("bad grid should fail to compile")
	}
}

// TestBothLayersEdgeOut checks Section III-B / Tables V-VI: simultaneous
// gate-length + gate-width modulation does at least as well as
// length-only (the extra knob can only help the model optimum).
func TestBothLayersEdgeOut(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	mL, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	mLW, err := FitModelCtx(context.Background(), golden, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	optL := DefaultOptions()
	rL, err := SolveQP(context.Background(), QPRequest{Compiled: mustCompile(t, golden, mL, optL), Opt: optL, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	optLW := DefaultOptions()
	optLW.BothLayers = true
	rLW, err := SolveQP(context.Background(), QPRequest{Compiled: mustCompile(t, golden, mLW, optLW), Opt: optLW, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	if rLW.Layers.Active == nil {
		t.Fatal("both-layers run must produce an active map")
	}
	// Model optimum with the extra degree of freedom can only improve.
	if rLW.PredDeltaLeakNW > rL.PredDeltaLeakNW+1 {
		t.Errorf("both-layers model objective %.1f worse than poly-only %.1f",
			rLW.PredDeltaLeakNW, rL.PredDeltaLeakNW)
	}
	t.Logf("poly-only Δleak %.1f nW, both-layers %.1f nW; golden %.2f vs %.2f µW",
		rL.PredDeltaLeakNW, rLW.PredDeltaLeakNW, rL.Golden.LeakUW, rLW.Golden.LeakUW)
}
