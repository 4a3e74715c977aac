package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dosemap"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// waferComp compiles one shared artifact for wafer tests (all fields
// print the same design, so every wafer run reuses this).
func waferComp(t testing.TB, scale float64) *Compiled {
	t.Helper()
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(scale))
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
	return comp
}

// smokeWafer is the tiny end-to-end layout: 58×58 mm fields on a
// 300 mm wafer give 12 fields in 4 scan columns — the smallest layout
// with both multi-field columns and column-signature dedup.
func smokeWafer() WaferOptions {
	return WaferOptions{
		FieldWmm: 58, FieldHmm: 58,
		Fingerprint: dosemap.RadialCD{Center: -2, Edge: 4, Power: 2},
	}
}

func runWafer(t testing.TB, comp *Compiled, workers int, wopt WaferOptions, proc []int) *WaferResult {
	t.Helper()
	opt := DefaultOptions()
	opt.Workers = workers
	r, err := SolveWafer(context.Background(), WaferRequest{
		Compiled: comp, Opt: opt, Wafer: wopt, procOrder: proc,
	})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return r
}

// waferBitsEq asserts two wafer results are bit-identical in every
// float a caller can observe: per-field dose maps and signoffs, the
// common target, the spreads and the consensus trace.
func waferBitsEq(t *testing.T, a, b *WaferResult) {
	t.Helper()
	if math.Float64bits(a.TauPs) != math.Float64bits(b.TauPs) {
		t.Fatalf("TauPs differs: %v vs %v", a.TauPs, b.TauPs)
	}
	bitsEqSlice(t, "spreads",
		[]float64{a.UniformSpreadPct, a.UncoupledSpreadPct, a.CoupledSpreadPct},
		[]float64{b.UniformSpreadPct, b.UncoupledSpreadPct, b.CoupledSpreadPct})
	bitsEqSlice(t, "residuals", a.Residuals, b.Residuals)
	if len(a.Fields) != len(b.Fields) {
		t.Fatalf("field count differs: %d vs %d", len(a.Fields), len(b.Fields))
	}
	for i := range a.Fields {
		fa, fb := &a.Fields[i], &b.Fields[i]
		bitsEqSlice(t, "field dose", fa.Dose.D, fb.Dose.D)
		bitsEqSlice(t, "field signoffs",
			[]float64{fa.Uniform.MCTps, fa.Uniform.LeakUW, fa.Uncoupled.MCTps, fa.Uncoupled.LeakUW, fa.Coupled.MCTps, fa.Coupled.LeakUW, fa.UncoupledPredMCT},
			[]float64{fb.Uniform.MCTps, fb.Uniform.LeakUW, fb.Uncoupled.MCTps, fb.Uncoupled.LeakUW, fb.Coupled.MCTps, fb.Coupled.LeakUW, fb.UncoupledPredMCT})
	}
	for col, pa := range a.Profiles {
		bitsEqSlice(t, "profile", pa, b.Profiles[col])
	}
}

// checkWaferClaims asserts the experiment's claim on any wafer result:
// the coupled consensus solve equalizes the wafer (spread strictly
// below both the uniform-dose and the uncoupled baselines) without
// blowing the shared leakage budget.
func checkWaferClaims(t *testing.T, r *WaferResult) {
	t.Helper()
	if !(r.CoupledSpreadPct < r.UncoupledSpreadPct) {
		t.Errorf("coupled spread %.4f%% not below uncoupled %.4f%%", r.CoupledSpreadPct, r.UncoupledSpreadPct)
	}
	if !(r.CoupledSpreadPct < r.UniformSpreadPct) {
		t.Errorf("coupled spread %.4f%% not below uniform %.4f%%", r.CoupledSpreadPct, r.UniformSpreadPct)
	}
	for i := range r.Fields {
		f := &r.Fields[i]
		// ξ = 0 here, so each field's coupled leakage must stay at the
		// nominal level up to model-vs-signoff slack.
		if f.Coupled.LeakUW > r.NomLeakUW*1.02 {
			t.Errorf("field (%d,%d): coupled leakage %.2f µW exceeds budget around nominal %.2f µW",
				f.Col, f.Row, f.Coupled.LeakUW, r.NomLeakUW)
		}
		if f.Coupled.MCTps > r.TauPs*1.02 {
			t.Errorf("field (%d,%d): coupled MCT %.2f ps far above target %.2f ps",
				f.Col, f.Row, f.Coupled.MCTps, r.TauPs)
		}
	}
}

// checkConsensusStopped asserts every column group stopped at the
// consensus tolerance rather than at the outer cap: the last residual
// (the worst group's final round) is below waferConsensusTol and the
// rounds add up to fewer than groups × MaxOuter.
func checkConsensusStopped(t *testing.T, r *WaferResult, wopt WaferOptions) {
	t.Helper()
	if n := len(r.Residuals); n == 0 || !(r.Residuals[n-1] < waferConsensusTol) {
		t.Errorf("consensus residual trace %v does not end below %g", r.Residuals, waferConsensusTol)
	}
	if limit := r.Groups * wopt.normalized().MaxOuter; r.OuterIters >= limit {
		t.Errorf("%d outer rounds over %d groups: not below the cap total %d", r.OuterIters, r.Groups, limit)
	}
}

// TestWaferSmoke is the CI smoke gate (`make wafer-smoke`): a tiny
// 12-field wafer solved end-to-end, serial versus parallel, must be
// bit-identical and satisfy the equalization claim.
func TestWaferSmoke(t *testing.T) {
	comp := waferComp(t, 0.05)
	serial := runWafer(t, comp, 1, smokeWafer(), nil)
	parallel := runWafer(t, comp, 2, smokeWafer(), nil)
	waferBitsEq(t, serial, parallel)
	checkWaferClaims(t, serial)
	checkConsensusStopped(t, serial, smokeWafer())
	t.Logf("fields=%d groups=%d τ̄=%.1f ps spreads: uniform %.3f%% uncoupled %.3f%% coupled %.4f%% (outer %d, solves %d, residuals %v)",
		len(serial.Fields), serial.Groups, serial.TauPs,
		serial.UniformSpreadPct, serial.UncoupledSpreadPct, serial.CoupledSpreadPct,
		serial.OuterIters, serial.FieldSolves, serial.Residuals)
	if serial.Groups < 2 {
		t.Errorf("smoke wafer collapsed to %d consensus group(s); layout too degenerate to exercise dedup", serial.Groups)
	}
	if len(serial.Fields) != 12 {
		t.Errorf("smoke wafer has %d fields, want 12", len(serial.Fields))
	}
}

// TestWaferUncoupledIsSingleFieldQCP: the uncoupled stage is the
// single-field engine on a shifted box.  Each field's Uncoupled signoff
// and UncoupledPredMCT equal, bit for bit, a SolveQCP on deriveField of
// the base compile (box rows only) at that field's bias, and the
// wafer's core/smooth_rows_added is the sum of those QCPs' separated
// rows, so the consensus fields, which start from every smoothness row,
// separate none.
func TestWaferUncoupledIsSingleFieldQCP(t *testing.T) {
	comp := waferComp(t, 0.05)
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Workers = 2
	rec := obs.New()
	r, err := SolveWafer(obs.With(ctx, rec), WaferRequest{Compiled: comp, Opt: opt, Wafer: smokeWafer()})
	if err != nil {
		t.Fatal(err)
	}
	// The options SolveWafer hands each field solve.
	inner := opt.normalized()
	inner.Snap, inner.Workers = false, 1
	solved := map[uint64]*Result{}
	rows := int64(0)
	for i := range r.Fields {
		f := &r.Fields[i]
		qr, ok := solved[math.Float64bits(f.CDBiasNm)]
		if !ok {
			fc, fopt := deriveField(comp, inner, f.BiasDosePct)
			qrec := obs.New()
			if qr, err = SolveQCP(obs.With(ctx, qrec), QCPRequest{Compiled: fc, Opt: fopt}); err != nil {
				t.Fatalf("field (%d,%d): %v", f.Col, f.Row, err)
			}
			rows += qrec.Counter("core/smooth_rows_added")
			solved[math.Float64bits(f.CDBiasNm)] = qr
		}
		bitsEqSlice(t, fmt.Sprintf("field (%d,%d) uncoupled signoff and model MCT", f.Col, f.Row),
			[]float64{f.Uncoupled.MCTps, f.Uncoupled.LeakUW, f.UncoupledPredMCT},
			[]float64{qr.Golden.MCTps, qr.Golden.LeakUW, qr.PredMCT})
	}
	if got := rec.Counter("core/smooth_rows_added"); rows == 0 || got != rows {
		t.Errorf("wafer core/smooth_rows_added = %d, want the %d rows its %d uncoupled QCPs separate (and more than 0)", got, rows, len(solved))
	}
}

// TestWaferWorkerBitIdentity is the wafer determinism gate, same
// discipline as TestQCPWorkerBitIdentity: the full three-stage wafer
// solve must be bit-identical at workers 1, 2 and 8 AND under a
// shuffled field-solve dispatch order, because consensus averaging
// runs serially per group and every result lands in an index-owned
// slot.
func TestWaferWorkerBitIdentity(t *testing.T) {
	comp := waferComp(t, 0.05)
	wopt := smokeWafer()
	base := runWafer(t, comp, 1, wopt, nil)
	for _, w := range []int{2, 8} {
		waferBitsEq(t, base, runWafer(t, comp, w, wopt, nil))
	}
	// Reversed dispatch order: group i is handed to par.Map slot
	// len-1-i, so completion order is scrambled relative to the
	// canonical run while the slots stay index-owned.
	perm := make([]int, base.Groups)
	for i := range perm {
		perm[i] = len(perm) - 1 - i
	}
	waferBitsEq(t, base, runWafer(t, comp, 8, wopt, perm))
}

// TestWaferConsensusConvergence is the convergence property suite: on
// randomized radial CD signatures every group must stop at the
// consensus tolerance, the residual must fall monotonically after
// burn-in, fields of a scan column must exit with an identical shared
// slit profile, and the coupled spread must not exceed the uncoupled
// one.
func TestWaferConsensusConvergence(t *testing.T) {
	comp := waferComp(t, 0.05)
	rng := rand.New(rand.NewSource(80801))
	for trial := 0; trial < 3; trial++ {
		wopt := smokeWafer()
		wopt.Fingerprint = dosemap.RadialCD{
			Center: -3 + 4*rng.Float64(),  // [-3, 1] nm
			Edge:   rng.Float64() * 4,     // [0, 4] nm
			Power:  1.5 + rng.Float64()*2, // [1.5, 3.5]
		}
		r := runWafer(t, comp, 2, wopt, nil)
		checkConsensusStopped(t, r, wopt)

		// Residual trace: monotone non-increasing after one burn-in
		// iteration.
		for i := 2; i < len(r.Residuals); i++ {
			if r.Residuals[i] > r.Residuals[i-1]+1e-12 {
				t.Errorf("trial %d: residual rose at outer iter %d: %.3e -> %.3e (trace %v)",
					trial, i, r.Residuals[i-1], r.Residuals[i], r.Residuals)
			}
		}

		// Exit profiles: every field of a scan column agrees with the
		// column's shared consensus profile.  The physical dose map
		// differs from the effective one by a uniform shift, which the
		// zero-mean deviation cancels, so the check runs on the
		// published maps directly.
		dev := make([]float64, comp.Grid.N)
		for i := range r.Fields {
			f := &r.Fields[i]
			slitDeviation(f.Dose.D, comp.Grid, dev)
			z := r.Profiles[f.Col]
			if z == nil {
				t.Fatalf("trial %d: no profile for column %d", trial, f.Col)
			}
			for j := range dev {
				if math.Abs(dev[j]-z[j]) > 1e-4 {
					t.Errorf("trial %d: field (%d,%d) slit deviation [%d] = %.6f differs from consensus %.6f",
						trial, f.Col, f.Row, j, dev[j], z[j])
					break
				}
			}
		}

		if r.CoupledSpreadPct > r.UncoupledSpreadPct {
			t.Errorf("trial %d: coupled spread %.4f%% exceeds uncoupled %.4f%%",
				trial, r.CoupledSpreadPct, r.UncoupledSpreadPct)
		}
	}
}

// BenchmarkWaferSolve times the full three-stage wafer solve on the
// tiny 12-field layout (shared compile excluded, as in production use).
func BenchmarkWaferSolve(b *testing.B) {
	comp := waferComp(b, 0.05)
	wopt := smokeWafer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := DefaultOptions()
		r, err := SolveWafer(context.Background(), WaferRequest{Compiled: comp, Opt: opt, Wafer: wopt})
		if err != nil {
			b.Fatal(err)
		}
		_ = r
	}
}
