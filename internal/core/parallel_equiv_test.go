package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/sta"
)

// bitsEqSlice fails on the first element whose Float64bits differ.
func bitsEqSlice(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s length differs: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d] differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// qcpOnce runs the full QCP flow (cut-pool bisection with Newton-on-τ)
// on a shared compiled artifact at the given worker count.
func qcpOnce(t *testing.T, comp *Compiled, workers int) *Result {
	t.Helper()
	opt := DefaultOptions()
	opt.Workers = workers
	r, err := SolveQCP(context.Background(), QCPRequest{Compiled: comp, Opt: opt})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return r
}

// TestQCPWorkerBitIdentity is the end-to-end determinism gate for this
// PR's parallel numeric phase: the full QCP solve — golden STA, model
// fit, cut-pool bisection with warm-started Newton-on-τ, snap and
// signoff — must produce a bit-identical dose map and signoff at
// workers 1, 2 and 8, on every Table IV design (the four Table I
// presets, scaled down for test runtime).
func TestQCPWorkerBitIdentity(t *testing.T) {
	for _, p := range gen.Presets() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			d, err := gen.GenerateCtx(context.Background(), p.Scaled(0.05))
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
			comp, err := CompileCtx(context.Background(), golden, model, opt.CompileOptions())
			if err != nil {
				t.Fatal(err)
			}

			base := qcpOnce(t, comp, 1)
			for _, w := range []int{2, 8} {
				r := qcpOnce(t, comp, w)
				if r.Probes != base.Probes {
					t.Errorf("workers=%d probes %d, want %d", w, r.Probes, base.Probes)
				}
				if math.Float64bits(r.PredMCT) != math.Float64bits(base.PredMCT) {
					t.Errorf("workers=%d PredMCT %v, want %v", w, r.PredMCT, base.PredMCT)
				}
				if math.Float64bits(r.Golden.MCTps) != math.Float64bits(base.Golden.MCTps) {
					t.Errorf("workers=%d signoff MCT %v, want %v", w, r.Golden.MCTps, base.Golden.MCTps)
				}
				if math.Float64bits(r.Golden.LeakUW) != math.Float64bits(base.Golden.LeakUW) {
					t.Errorf("workers=%d signoff leak %v, want %v", w, r.Golden.LeakUW, base.Golden.LeakUW)
				}
				bitsEqSlice(t, "dose map", base.Layers.Poly.D, r.Layers.Poly.D)
			}
		})
	}
}

// BenchmarkTauNewton times the full QCP bisection on a compiled AES
// instance — the loop the warm-started Newton step accelerates.
// core/qcp_probes in -bench-json reports tell the same story at table
// scale.
func BenchmarkTauNewton(b *testing.B) {
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.05))
	if err != nil {
		b.Fatal(err)
	}
	golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	comp, err := CompileCtx(context.Background(), golden, model, opt.CompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveQCP(context.Background(), QCPRequest{Compiled: comp, Opt: opt}); err != nil {
			b.Fatal(err)
		}
	}
}
