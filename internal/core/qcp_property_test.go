package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sta"
)

// TestQCPLeakageBudgetProperty sweeps leakage budgets ξ on two designs
// and checks the QCP contract from Eq. 7/12 end to end: the golden
// signoff Δleakage respects ξ (within the documented acceptance
// tolerance), timing never degrades versus nominal, and the returned
// dose maps satisfy the equipment range and smoothness constraints the
// optimizer was given.
func TestQCPLeakageBudgetProperty(t *testing.T) {
	cases := []struct {
		preset gen.Preset
		xis    []float64
	}{
		{gen.AES65().Scaled(0.04), []float64{0, 60, 250}},
		{gen.AES90().Scaled(0.04), []float64{0, 120}},
	}
	for _, tc := range cases {
		d, err := gen.GenerateCtx(context.Background(), tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		model, err := FitModelCtx(context.Background(), golden, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, xi := range tc.xis {
			opt := DefaultOptions()
			opt.XiNW = xi
			dm, err := SolveQCP(context.Background(), QCPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt})
			if err != nil {
				t.Fatalf("%s ξ=%g: %v", tc.preset.Name, xi, err)
			}
			xiTol := xiToleranceLeak(nominalLeak(golden), xi)
			// Budget property on the model prediction (what the QCP
			// constrains directly)...
			if dm.PredDeltaLeakNW > xi+xiTol {
				t.Errorf("%s ξ=%g: predicted Δleakage %.3f nW exceeds budget (tol %.3f)",
					tc.preset.Name, xi, dm.PredDeltaLeakNW, xiTol)
			}
			// ...and on the golden signoff after timing-safe snapping,
			// which the snap margin is supposed to keep inside ξ too.
			dLeakNW := (dm.Golden.LeakUW - dm.Nominal.LeakUW) * power.NWPerUW
			if dLeakNW > xi+xiTol {
				t.Errorf("%s ξ=%g: signoff Δleakage %.3f nW exceeds budget (tol %.3f)",
					tc.preset.Name, xi, dLeakNW, xiTol)
			}
			// QCP minimizes the clock period: it must never end slower
			// than nominal.
			if dm.Golden.MCTps > dm.Nominal.MCTps+1e-9 {
				t.Errorf("%s ξ=%g: MCT degraded %.3f → %.3f ps",
					tc.preset.Name, xi, dm.Nominal.MCTps, dm.Golden.MCTps)
			}
			// Dose-map feasibility: equipment range and neighbor
			// smoothness as configured.
			if err := dm.Layers.Poly.CheckRange(opt.DoseLo-1e-9, opt.DoseHi+1e-9); err != nil {
				t.Errorf("%s ξ=%g: %v", tc.preset.Name, xi, err)
			}
			if err := dm.Layers.Poly.CheckSmooth(opt.Delta + 1e-9); err != nil {
				t.Errorf("%s ξ=%g: %v", tc.preset.Name, xi, err)
			}
		}
	}
}
