// Quickstart: generate a synthetic AES-65 testcase, run the dose-map QP
// (minimize leakage under the nominal clock period) and print the golden
// signoff numbers — the headline result of the paper: leakage drops with
// no timing cost, something no uniform dose change can do.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// A tenth-scale AES-65 keeps this example under a few seconds.
	preset := repro.AES65().Scaled(0.1)
	d, err := repro.Generate(preset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("design %s: %d cells on %.0fx%.0f µm\n",
		preset.Name, d.Circ.NumCells(), d.Pl.ChipW, d.Pl.ChipH)

	golden, err := repro.Analyze(d)
	if err != nil {
		log.Fatal(err)
	}
	model, err := repro.FitModel(golden, false)
	if err != nil {
		log.Fatal(err)
	}
	opt := repro.DefaultOptions()
	opt.G = 5 // the paper's finest grid; G is an equipment property, not a design one

	// One compiled formulation serves every solve at this grid, δ,
	// dose range and layer choice.
	ctx := context.Background()
	comp, err := repro.Compile(ctx, golden, model, opt)
	if err != nil {
		log.Fatal(err)
	}
	dm, err := repro.SolveQP(ctx, repro.QPRequest{Compiled: comp, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nominal : MCT %7.1f ps, leakage %7.1f µW\n", dm.Nominal.MCTps, dm.Nominal.LeakUW)
	fmt.Printf("DMopt QP: MCT %7.1f ps, leakage %7.1f µW\n", dm.Golden.MCTps, dm.Golden.LeakUW)
	fmt.Printf("leakage saved: %.1f%% at %.2f%% timing cost\n",
		100*(1-dm.Golden.LeakUW/dm.Nominal.LeakUW),
		100*(dm.Golden.MCTps/dm.Nominal.MCTps-1))
	st := dm.Layers.Poly.Stats()
	fmt.Printf("dose map: %d grids, dose ∈ [%.2f%%, %.2f%%], max neighbor Δ %.2f%%\n",
		dm.Layers.Poly.Grid.Cells(), st.Min, st.Max, dm.Layers.Poly.MaxNeighborDiff())
}
