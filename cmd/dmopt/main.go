// Command dmopt runs the design-aware dose-map optimization on one
// testcase and prints the golden signoff numbers, optionally followed by
// the dosePl cell-swapping rounds.
//
// The flags assemble a dmopt-job/v1 spec (internal/api) and run it
// in-process through the same Prepare/Execute path dmopt-serve uses, so
// a job POSTed to the server returns numbers bit-identical to this
// command.
//
// Usage:
//
//	dmopt [-design AES-65] [-scale 0.15] [-grid 5] [-qcp] [-both]
//	      [-delta 2] [-dosepl] [-xi 0]
//	      [-actuators dose|bias|dose+bias] [-bias-grid 20] [-bias-lo -0.2] [-bias-hi 0.1]
package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/api"
	"repro/internal/cli"
)

func main() {
	design := flag.String("design", "AES-65", "testcase: AES-65, JPEG-65, AES-90, JPEG-90")
	scale := flag.Float64("scale", 0.15, "design scale factor in (0,1]")
	grid := flag.Float64("grid", 5, "dose-map grid size G in µm")
	qcp := flag.Bool("qcp", false, "minimize clock period under leakage budget (default: minimize leakage under timing)")
	both := flag.Bool("both", false, "modulate both poly and active layers (Lgate + Wgate)")
	delta := flag.Float64("delta", 2, "dose smoothness bound δ in percent")
	xi := flag.Float64("xi", 0, "QCP leakage budget ξ in nW (Δleakage allowed)")
	dosepl := flag.Bool("dosepl", false, "run dosePl cell-swapping rounds after DMopt")
	act := cli.AddActuatorFlags(flag.CommandLine)
	com := cli.AddFlags("dmopt")
	flag.Parse()
	com.Init()
	defer com.Close()

	mode := api.ModeQP
	if *qcp {
		mode = api.ModeQCP
	}
	spec := api.JobSpec{
		Design:     *design,
		Scale:      *scale,
		Mode:       mode,
		XiNW:       *xi,
		GridUm:     *grid,
		Delta:      *delta,
		BothLayers: *both,
		DosePl:     *dosepl,
		Workers:    com.Workers,
	}
	act.Apply(&spec)

	start := time.Now()
	ctx := com.Context()
	com.Check(spec.Validate())
	art, err := api.Prepare(ctx, spec, nil)
	com.Check(err)
	res, dm, err := api.Execute(ctx, art, spec)
	com.Check(err)

	fmt.Printf("%s: %d cells\n", spec.DesignKey(), art.Golden.In.Circ.NumCells())
	fmt.Printf("\n%s, grid %.1f µm, δ=%.1f, layers=%s\n", res.Mode, *grid, *delta, layers(*both))
	fmt.Printf("  nominal : MCT %8.1f ps   leakage %9.1f µW\n", res.NominalMCTPs, res.NominalLeakUW)
	fmt.Printf("  DMopt   : MCT %8.1f ps   leakage %9.1f µW   (%+.2f%% / %+.2f%%)\n",
		dm.Golden.MCTps, dm.Golden.LeakUW,
		100*(dm.Golden.MCTps/dm.Nominal.MCTps-1), 100*(dm.Golden.LeakUW/dm.Nominal.LeakUW-1))
	fmt.Printf("  solver  : %s, probes=%d, runtime %v\n", res.SolverStatus, res.Probes, dm.Runtime.Round(time.Millisecond))
	fmt.Printf("  dose map: min %.2f%%  max %.2f%%  mean %.2f%%  max neighbor Δ %.3f%%\n",
		res.Dose.MinPct, res.Dose.MaxPct, res.Dose.MeanPct, res.Dose.MaxNeighborDeltaPct)
	if bs := res.Bias; bs != nil {
		fmt.Printf("  bias    : %d domains  min %+.3f V  max %+.3f V  mean %+.3f V\n",
			bs.Domains, bs.MinV, bs.MaxV, bs.MeanV)
	}
	if dp := res.DosePl; dp != nil {
		fmt.Printf("  dosePl  : MCT %8.1f ps   leakage %9.1f µW   (%d swaps accepted over %d rounds)\n",
			dp.MCTPs, dp.LeakUW, dp.SwapsAccepted, dp.Rounds)
	}
	com.Finish("dmopt "+spec.DesignKey(), *scale, 0, com.Workers, time.Since(start))
}

func layers(both bool) string {
	if both {
		return "poly+active"
	}
	return "poly"
}
