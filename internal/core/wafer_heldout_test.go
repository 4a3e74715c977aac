package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/sta"
)

// TestWaferHeldOutSeeds solves the Table IX wafer on the two AES-65
// designs whose consensus once ended in a polish that did not converge
// (`cut QP did not converge` at round 0): the preset seed offset by 53
// and by 92, at scale 0.15 and G = 10 on the expt.WaferGeometry layout,
// with the model fitted on 2 workers — the set-up of the flows
// benchmark's held-out pass.
func TestWaferHeldOutSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two scale-0.15 designs")
	}
	for _, offset := range []int64{53, 92} {
		t.Run(fmt.Sprintf("seed+%d", offset), func(t *testing.T) {
			ctx := context.Background()
			p, err := gen.PresetByName("AES-65")
			if err != nil {
				t.Fatal(err)
			}
			p = p.Scaled(0.15)
			p.Seed += offset
			d, err := gen.GenerateCtx(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := core.GoldenNominalCtx(ctx, d, sta.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			model, err := core.FitModelCtx(ctx, golden, false, 2)
			if err != nil {
				t.Fatal(err)
			}
			opt := core.DefaultOptions()
			opt.G = 10
			opt.Workers = 2
			comp, err := core.CompileCtx(ctx, golden, model, opt.CompileOptions())
			if err != nil {
				t.Fatal(err)
			}
			r, err := core.SolveWafer(ctx, core.WaferRequest{Compiled: comp, Opt: opt, Wafer: expt.WaferGeometry()})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("groups=%d outer=%d solves=%d spreads: uniform %.3f%% uncoupled %.3f%% coupled %.4f%%",
				r.Groups, r.OuterIters, r.FieldSolves, r.UniformSpreadPct, r.UncoupledSpreadPct, r.CoupledSpreadPct)
		})
	}
}
