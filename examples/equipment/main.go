// Equipment view: Section II-A made concrete.  The DoseMapper actuators
// expose a slit profile (Unicom-XL, a polynomial of order ≤6) and a scan
// profile (Dosicom, up to eight Legendre coefficients, Eq. 1).  This
// example optimizes a dose map, decomposes it into that actuator recipe,
// and reports how much of the design-aware map the equipment realizes.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/dosemap"
)

func main() {
	d, err := repro.Generate(repro.AES65().Scaled(0.1))
	if err != nil {
		log.Fatal(err)
	}
	golden, err := repro.Analyze(d)
	if err != nil {
		log.Fatal(err)
	}
	model, err := repro.FitModel(golden, false)
	if err != nil {
		log.Fatal(err)
	}
	opt := repro.DefaultOptions()
	opt.G = 5
	ctx := context.Background()
	comp, err := repro.Compile(ctx, golden, model, opt)
	if err != nil {
		log.Fatal(err)
	}
	res, err := repro.SolveQP(ctx, repro.QPRequest{Compiled: comp, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		log.Fatal(err)
	}
	m := res.Layers.Poly
	st := m.Stats()
	fmt.Printf("optimized dose map: %dx%d grids, dose ∈ [%.2f%%, %.2f%%], RMS %.2f%%\n",
		m.Grid.M, m.Grid.N, st.Min, st.Max, st.RMS)

	// ACLV baseline: the manufacturing-only map the fab would use today.
	base := dosemap.ACLVBaseline(m.Grid, 1.5)
	fmt.Printf("ACLV baseline map : dose ∈ [%.2f%%, %.2f%%] (radial+tilt fingerprint)\n",
		base.Stats().Min, base.Stats().Max)

	// Decompose the design-aware map into the actuator recipe.
	rec, err := dosemap.FitRecipe(m, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nactuator recipe (quadratic slit + 4 Legendre scan terms):\n")
	fmt.Printf("  slit coefficients: %v\n", fmtCoeffs(rec.Slit.Coeffs))
	fmt.Printf("  scan coefficients: %v\n", fmtCoeffs(rec.Scan.Coeffs))
	fmt.Printf("  RMS residual     : %.3f%% dose\n", rec.RMSResidual)

	rec6, err := dosemap.FitRecipe(m, 6, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith the full XT:1700i capability (6th-order slit, 8 Legendre terms):\n")
	fmt.Printf("  RMS residual     : %.3f%% dose\n", rec6.RMSResidual)
	fmt.Println("\nthe residual is what per-grid dose control (this paper's knob)")
	fmt.Println("buys over pure slit/scan actuators.")
}

func fmtCoeffs(cs []float64) string {
	out := "["
	for i, c := range cs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%.3f", c)
	}
	return out + "]"
}
