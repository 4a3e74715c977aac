package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dosemap"
	"repro/internal/gen"
	"repro/internal/sta"
)

// TestRunFlowQCPWithDosePl runs the Fig. 7 timing flow stage by stage:
// golden analysis, fit, compile, QCP, then the dosePl rounds.
func TestRunFlowQCPWithDosePl(t *testing.T) {
	_, golden := smallGolden(t, 0.05)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	dm, err := SolveQCP(context.Background(), QCPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	dopt := DefaultDosePlOptions()
	dopt.K = 500
	dopt.Rounds = 4
	dopt.Gamma5 = 3
	dp, err := DosePlCtx(context.Background(), golden, dm.Layers, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	// dosePl must never leave the design worse than DMopt left it.
	if dp.After.MCTps > dm.Golden.MCTps+1e-9 {
		t.Errorf("dosePl degraded MCT: %v → %v", dm.Golden.MCTps, dp.After.MCTps)
	}
	// And the whole flow must beat nominal timing.
	if dp.After.MCTps >= dm.Nominal.MCTps {
		t.Errorf("flow did not improve timing: %v vs nominal %v", dp.After.MCTps, dm.Nominal.MCTps)
	}
	t.Logf("flow: nominal %.1f → DMopt %.1f → dosePl %.1f ps (accepted swaps %d, tried %d)",
		dm.Nominal.MCTps, dm.Golden.MCTps, dp.After.MCTps, dp.SwapsAccepted, dp.SwapsTried)
}

func TestDosePlRollbackSafety(t *testing.T) {
	// With absurdly large γ5 and tiny HPWL/leak allowances, most swaps
	// are filtered; whatever rounds run must never accept a worse MCT.
	d, err := gen.GenerateCtx(context.Background(), gen.AES90().Scaled(0.04))
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
	opt := DefaultOptions()
	dm, err := SolveQCP(context.Background(), QCPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	dopt := DefaultDosePlOptions()
	dopt.K = 300
	dopt.Rounds = 3
	dopt.Gamma5 = 5
	dp, err := DosePlCtx(context.Background(), golden, dm.Layers, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if dp.After.MCTps > dp.Before.MCTps+1e-9 {
		t.Errorf("dosePl must never end worse: %v → %v", dp.Before.MCTps, dp.After.MCTps)
	}
	for _, r := range dp.Rounds {
		if r.Accepted && r.MCTps >= dp.Before.MCTps {
			t.Errorf("accepted a non-improving round: %+v", r)
		}
	}
	// The placement must stay legal.
	if d.Pl.OverlapCount() != 0 {
		t.Errorf("placement has overlaps after dosePl")
	}
	if err := d.Pl.InBounds(); err != nil {
		t.Error(err)
	}
}

func TestBiasPerturbAndSlackProfile(t *testing.T) {
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.04))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bias := BiasPerturb(golden, 500, 0, 5)
	biased, err := sta.AnalyzeCtx(context.Background(), golden.In, golden.Cfg, bias)
	if err != nil {
		t.Fatal(err)
	}
	if biased.MCT >= golden.MCT {
		t.Errorf("bias design must be faster: %v vs %v", biased.MCT, golden.MCT)
	}
	// Slack profiles at the nominal period: bias dominates original.
	p0 := PathSlackProfile(golden, 300, 0, golden.MCT)
	p1 := PathSlackProfile(biased, 300, 0, golden.MCT)
	if len(p0) == 0 || len(p1) == 0 {
		t.Fatal("empty profiles")
	}
	if !(p0[0] >= -1e-6 && math.Abs(p0[0]) < 1e-6) {
		t.Errorf("original worst path slack at T=MCT should be 0, got %v", p0[0])
	}
	if p1[0] <= p0[0] {
		t.Errorf("bias worst slack %v should beat original %v", p1[0], p0[0])
	}
	// Sorted ascending.
	for i := 1; i < len(p0); i++ {
		if p0[i] < p0[i-1] {
			t.Fatal("profile not sorted")
		}
	}
}

// TestDosePlRequiresDoseOnly: dosePl refuses options with body bias or
// without dose at entry, before any timing or placement work.  Moving
// cells would invalidate the bias-domain assignment, and signing off the
// dose maps alone would drop the bias voltages the solve chose.
func TestDosePlRequiresDoseOnly(t *testing.T) {
	d, golden := smallGolden(t, 0.04)
	grid, err := dosemap.NewGrid(d.Pl.ChipW, d.Pl.ChipH, DefaultOptions().G)
	if err != nil {
		t.Fatal(err)
	}
	layers := dosemap.Layers{Poly: dosemap.NewMap(grid)}
	joint := DefaultOptions()
	joint.BiasGridUm = 20
	biasOnly := joint
	biasOnly.DoseOff = true
	for name, opt := range map[string]Options{"joint": joint, "bias-only": biasOnly} {
		x := append([]float64(nil), d.Pl.X...)
		_, err := DosePlCtx(context.Background(), golden, layers, opt, DefaultDosePlOptions())
		if err == nil || !strings.Contains(err.Error(), "dose-only") {
			t.Errorf("%s: err = %v, want a dose-only refusal", name, err)
		}
		for i := range x {
			if x[i] != d.Pl.X[i] {
				t.Fatalf("%s: refused dosePl moved cell %d", name, i)
			}
		}
	}
}

// TestDosePlRejectsNonFiniteDose: a NaN or infinite dose in either
// layer map fails dosePl at entry with an error naming the layer and
// the grid cell, before any timing or placement work.
func TestDosePlRejectsNonFiniteDose(t *testing.T) {
	d, golden := smallGolden(t, 0.05)
	opt := DefaultOptions()
	grid, err := dosemap.NewGrid(d.Pl.ChipW, d.Pl.ChipH, opt.G)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		active bool // corrupt the active map instead of the poly map
		cell   int
		v      float64
		want   string
	}{
		{"poly NaN", false, 0, math.NaN(), "poly dose map holds NaN at grid cell (0,0)"},
		{"poly +Inf", false, 1, math.Inf(1), "poly dose map holds +Inf at grid cell (0,1)"},
		{"poly -Inf", false, grid.N, math.Inf(-1), "poly dose map holds -Inf at grid cell (1,0)"},
		{"active NaN", true, grid.N + 2, math.NaN(), "active dose map holds NaN at grid cell (1,2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			layers := dosemap.Layers{Poly: dosemap.NewMap(grid), Active: dosemap.NewMap(grid)}
			bad := layers.Poly
			if tc.active {
				bad = layers.Active
			}
			bad.D[tc.cell] = tc.v
			_, err := DosePlCtx(context.Background(), golden, layers, opt, DefaultDosePlOptions())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}
