// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - cutting-plane engine versus the verbatim node-based assembly;
//   - dose-map grid granularity (the Section V sweep);
//   - smoothness bound δ (tighter bounds shrink the reachable dose range
//     per grid, Section V's closing discussion);
//   - snapping policy (nearest versus timing-safe rounding).
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dosemap"
	"repro/internal/expt"
	"repro/internal/sta"
)

var (
	ablOnce   sync.Once
	ablGolden *sta.Result
	ablModel  *core.Model
)

func ablationFixture(b *testing.B) (*sta.Result, *core.Model) {
	ablOnce.Do(func() {
		d, err := repro.Generate(repro.AES65().Scaled(0.06))
		if err != nil {
			panic(err)
		}
		ablGolden, err = repro.Analyze(d)
		if err != nil {
			panic(err)
		}
		ablModel, err = repro.FitModel(ablGolden, false)
		if err != nil {
			panic(err)
		}
	})
	return ablGolden, ablModel
}

// BenchmarkAblationEngineCuts and ...EngineNode compare the default
// cutting-plane engine against the node-based Eq. 5 assembly on the
// same QP instance.
func BenchmarkAblationEngineCuts(b *testing.B) {
	golden, model := ablationFixture(b)
	opt := core.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.SolveQP(context.Background(), core.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("ablation engine=cuts: Δleak %.1f nW (%s)\n", r.PredDeltaLeakNW, r.Status)
		}
	}
}

func BenchmarkAblationEngineNode(b *testing.B) {
	golden, model := ablationFixture(b)
	opt := core.DefaultOptions()
	opt.Method = core.MethodNode
	opt.QP.MaxIter = 20000
	opt.QP.EpsAbs, opt.QP.EpsRel = 1e-4, 1e-4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.SolveQP(context.Background(), core.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			fmt.Printf("ablation engine=node: Δleak %.1f nW (%s)\n", r.PredDeltaLeakNW, r.Status)
		}
	}
}

// BenchmarkAblationGranularity sweeps the grid size G.
func BenchmarkAblationGranularity(b *testing.B) {
	golden, model := ablationFixture(b)
	for _, g := range []float64{2.5, 5, 10, 30} {
		b.Run(fmt.Sprintf("G%.1fum", g), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.G = g
			for i := 0; i < b.N; i++ {
				r, err := core.SolveQP(context.Background(), core.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					imp := 100 * (1 - r.Golden.LeakUW/r.Nominal.LeakUW)
					fmt.Printf("ablation G=%.1f µm: leak saved %.2f%%\n", g, imp)
				}
			}
		})
	}
}

// BenchmarkAblationSmoothness sweeps the dose smoothness bound δ.
func BenchmarkAblationSmoothness(b *testing.B) {
	golden, model := ablationFixture(b)
	for _, delta := range []float64{0.5, 1, 2, 4} {
		b.Run(fmt.Sprintf("delta%.1f", delta), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Delta = delta
			for i := 0; i < b.N; i++ {
				r, err := core.SolveQP(context.Background(), core.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					imp := 100 * (1 - r.Golden.LeakUW/r.Nominal.LeakUW)
					fmt.Printf("ablation δ=%.1f: leak saved %.2f%% (max neighbor Δ %.2f)\n",
						delta, imp, r.Layers.Poly.MaxNeighborDiff())
				}
			}
		})
	}
}

// BenchmarkAblationSnapPolicy compares nearest against timing-safe
// rounding of the optimized map at signoff.
func BenchmarkAblationSnapPolicy(b *testing.B) {
	golden, model := ablationFixture(b)
	opt := core.DefaultOptions()
	res, err := core.SolveQP(context.Background(), core.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		b.Fatal(err)
	}
	in := golden.In
	report := func(name string, m *dosemap.Map) {
		layers := dosemap.Layers{Poly: m}
		dl, dw := layers.PerGate(in.Circ, in.Pl, false)
		r, err := sta.Analyze(in, golden.Cfg, &sta.Perturb{DL: dl, DW: dw})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("ablation snap=%s: MCT %.1f ps (nominal %.1f)\n", name, r.MCT, golden.MCT)
	}
	nearest := res.Layers.Poly.Clone()
	nearest.Snap()
	safe := res.Layers.Poly.Clone()
	safe.SnapTimingSafe()
	report("nearest", nearest)
	report("timing-safe", safe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := res.Layers.Poly.Clone()
		m.SnapTimingSafe()
	}
}

// BenchmarkExtWaferVariation exercises the Section VI future-work
// extension: across-wafer MCT variation before and after per-field dose
// correction.
func BenchmarkExtWaferVariation(b *testing.B) {
	c := harness()
	printOnce("extwafer", func() (*expt.Table, error) { return c.WaferVariation("AES-65") }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.WaferVariation("AES-65"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTiledField compares DMopt with and without the tiling
// seam constraints (Section II-B multiple-copies case).
func BenchmarkExtTiledField(b *testing.B) {
	golden, model := ablationFixture(b)
	for _, tiled := range []bool{false, true} {
		name := "plain"
		if tiled {
			name = "tiled"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Tiled = tiled
			for i := 0; i < b.N; i++ {
				r, err := core.SolveQP(context.Background(), core.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					seam := "n/a"
					if err := r.Layers.Poly.CheckTiledSmooth(opt.Delta + 0.05); err == nil {
						seam = "ok"
					}
					fmt.Printf("ablation tiling=%s: Δleak %.1f nW, seam smoothness %s\n",
						name, r.PredDeltaLeakNW, seam)
				}
			}
		})
	}
}
