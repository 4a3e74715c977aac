package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/sta"
	"repro/internal/tech"
)

// TestSingleGridDegeneratesToUniform pins the optimizer to the Table
// II/III observation: with one grid cell covering the whole die (G =
// die size) the dose map is necessarily uniform, and a uniform dose
// cannot improve leakage without hurting timing or vice versa.  The QP
// at τ = nominal MCT must therefore return ~zero dose, and the QCP at
// ξ = 0 must find ~zero timing headroom.
func TestSingleGridDegeneratesToUniform(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.G = math.Max(golden.In.Pl.ChipW, golden.In.Pl.ChipH) + 1
	opt.Snap = false // snapping noise would hide the degeneracy

	qp, err := SolveQP(context.Background(), QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	if n := qp.Layers.Poly.Grid.Cells(); n != 1 {
		t.Fatalf("expected a single grid cell, got %d", n)
	}
	dose := qp.Layers.Poly.D[0]
	// The optimal uniform dose under a no-degradation timing bound is
	// (close to) zero: negative dose slows the wall, positive leaks.
	if math.Abs(dose) > 0.35 {
		t.Errorf("single-grid QP dose = %.3f%%, want ≈0", dose)
	}
	if qp.PredDeltaLeakNW < -0.02*1000*qp.Nominal.LeakUW {
		t.Errorf("single-grid QP claims %.1f nW savings; uniform dose cannot deliver that",
			qp.PredDeltaLeakNW)
	}

	qcp, err := SolveQCP(context.Background(), QCPRequest{Golden: golden, Model: model, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	imp := 1 - qcp.PredMCT/qcp.Nominal.MCTps
	if imp > 0.02 {
		t.Errorf("single-grid QCP claims %.2f%% timing gain at ξ=0; uniform dose cannot deliver that",
			100*imp)
	}

	// Sanity of the contrast: the real 5 µm grid finds substantial
	// leakage savings on the very same instance.
	fine := DefaultOptions()
	fine.Snap = false
	fineRes, err := SolveQP(context.Background(), QPRequest{Golden: golden, Model: model, Opt: fine, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	if fineRes.PredDeltaLeakNW > qp.PredDeltaLeakNW-100 {
		t.Errorf("fine grid (%.1f nW) should far outperform the uniform map (%.1f nW)",
			fineRes.PredDeltaLeakNW, qp.PredDeltaLeakNW)
	}
}

// TestDMoptNeverBeatsMaxDose pins the Fig. 10 headroom argument: no
// smoothness- and leakage-constrained dose map can beat the hard floor
// in which EVERY gate receives maximum dose.  (The paper's "Bias"
// reference — max dose on the top-K paths only — is not a true bound
// when more than K paths sit near the wall: biasing the top K promotes
// path K+1 to critical.  The all-gates variant is the real floor.)
func TestDMoptNeverBeatsMaxDose(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	qcp, err := SolveQCP(context.Background(), QCPRequest{Golden: golden, Model: model, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	n := golden.In.Circ.NumGates()
	dl := make([]float64, n)
	for id, m := range golden.In.Masters {
		if m != nil {
			dl[id] = tech.DoseToLength(opt.DoseHi)
		}
	}
	_, floor, err := EvalPerturbCtx(context.Background(), golden.In, golden.Cfg, &sta.Perturb{DL: dl})
	if err != nil {
		t.Fatal(err)
	}
	if qcp.Golden.MCTps < floor.MCT-1e-6 {
		t.Errorf("QCP MCT %.1f beats the all-gates max-dose floor %.1f — impossible",
			qcp.Golden.MCTps, floor.MCT)
	}
	// And the constrained optimum must leave SOME headroom on a
	// wall-heavy design (Fig. 10's gap between DMopt and Bias).
	if qcp.Golden.MCTps <= floor.MCT+1 {
		t.Logf("note: QCP nearly closed the headroom gap (%.1f vs %.1f)", qcp.Golden.MCTps, floor.MCT)
	}
}
