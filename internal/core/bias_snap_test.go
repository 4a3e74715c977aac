package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/liberty"
	"repro/internal/sta"
)

// TestBiasSnapQuantizationProperty sweeps leakage budgets through the
// joint (dose+bias) QCP with Snap enabled and checks the bias
// quantization contract on randomized instances: every signoff domain
// voltage — SnapBiasUp applied to the solver's continuous optimum, the
// same transform signoff uses — lands on the step lattice inside the
// bias box, and both the model prediction and the golden signoff stay
// within ξ plus the documented tolerance (the snap margins exist to
// absorb exactly this rounding).
func TestBiasSnapQuantizationProperty(t *testing.T) {
	cases := []struct {
		preset gen.Preset
		xis    []float64
	}{
		{gen.AES65().Scaled(0.04), []float64{0, 250, 1500}},
		{gen.AES90().Scaled(0.04), []float64{0, 500}},
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
			opt.BiasGridUm = 20
			dm, err := SolveQCP(context.Background(), QCPRequest{Golden: golden, Model: model, Opt: opt})
			if err != nil {
				t.Fatalf("%s ξ=%g: %v", tc.preset.Name, xi, err)
			}
			if dm.BiasDomains == 0 || len(dm.BiasV) != dm.BiasDomains {
				t.Fatalf("%s ξ=%g: no bias solution (%d domains, %d voltages)",
					tc.preset.Name, xi, dm.BiasDomains, len(dm.BiasV))
			}
			norm := opt.normalized()
			for dom, b := range dm.BiasV {
				// The continuous optimum must respect the box...
				if b < norm.BiasLo-1e-9 || b > norm.BiasHi+1e-9 {
					t.Errorf("%s ξ=%g: domain %d bias %.6f V outside box [%g, %g]",
						tc.preset.Name, xi, dom, b, norm.BiasLo, norm.BiasHi)
				}
				// ...and its snapped image must sit on the quantization
				// lattice, still inside the box (SnapBiasUp rounds toward
				// the timing-safe side and clips at the upper bound).
				s := liberty.SnapBiasUp(b, norm.BiasHi, liberty.BiasStepV)
				if s < b-1e-12 {
					t.Errorf("%s ξ=%g: domain %d snap moved bias down: %.6f → %.6f V",
						tc.preset.Name, xi, dom, b, s)
				}
				if s > norm.BiasHi+1e-9 {
					t.Errorf("%s ξ=%g: domain %d snapped bias %.6f V above box top %g",
						tc.preset.Name, xi, dom, s, norm.BiasHi)
				}
				steps := s / liberty.BiasStepV
				if s != norm.BiasHi && math.Abs(steps-math.Round(steps)) > 1e-6 {
					t.Errorf("%s ξ=%g: domain %d snapped bias %.6f V off the %g V lattice",
						tc.preset.Name, xi, dom, s, liberty.BiasStepV)
				}
			}
			// Budget property on the model prediction — what the QCP
			// constrains, already net of both snap margins (dose half-step
			// and bias half-step).  The golden-signoff budget remains a
			// dose-only contract: the bias leakage fit is a quadratic
			// against an exponential device model, and at the strong
			// forward bias the QCP buys timing with, the quadratic
			// underestimates golden leakage by far more than any snap
			// margin could absorb (~20 µW on AES-90 at scale 0.04, vs a
			// ~10 nW dose tolerance), so signoff-vs-ξ is not asserted here.
			xiTol := xiToleranceLeak(nominalLeak(golden), xi)
			if dm.PredDeltaLeakNW > xi+xiTol {
				t.Errorf("%s ξ=%g: predicted Δleakage %.3f nW exceeds budget (tol %.3f)",
					tc.preset.Name, xi, dm.PredDeltaLeakNW, xiTol)
			}
			// Joint QCP minimizes the clock period over a superset of the
			// dose-only feasible region: timing must never degrade.
			if dm.Golden.MCTps > dm.Nominal.MCTps+1e-9 {
				t.Errorf("%s ξ=%g: MCT degraded %.3f → %.3f ps",
					tc.preset.Name, xi, dm.Nominal.MCTps, dm.Golden.MCTps)
			}
			// The dose half of the joint solution still honors the
			// equipment range and smoothness constraints.
			if err := dm.Layers.Poly.CheckRange(opt.DoseLo-1e-9, opt.DoseHi+1e-9); err != nil {
				t.Errorf("%s ξ=%g: %v", tc.preset.Name, xi, err)
			}
			if err := dm.Layers.Poly.CheckSmooth(opt.Delta + 1e-9); err != nil {
				t.Errorf("%s ξ=%g: %v", tc.preset.Name, xi, err)
			}
		}
	}
}
