package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// flowRun is one Fig. 7 timing flow's stage results.
type flowRun struct {
	golden *sta.Result
	dm     *Result
	dp     *DosePlResult
}

// runFlowOnce generates a fresh design (dosePl mutates the placement, so
// the two runs must not share one) and runs every stage of the QCP +
// dosePl flow — golden analysis, fit, compile, QCP, dosePl — under the
// given context.
func runFlowOnce(t *testing.T, ctx context.Context) flowRun {
	t.Helper()
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Workers = 2 // exercise the par dispatch paths in both runs
	golden, err := GoldenNominalCtx(ctx, d, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitModelCtx(ctx, golden, false, opt.Workers)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCtx(ctx, golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	dm, err := SolveQCP(ctx, QCPRequest{Compiled: comp, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	dopt := DefaultDosePlOptions()
	dopt.K = 400
	dopt.Rounds = 3
	dp, err := DosePlCtx(ctx, golden, dm.Layers, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	return flowRun{golden: golden, dm: dm, dp: dp}
}

func bitsEq(t *testing.T, name string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s differs with telemetry enabled: %v vs %v", name, a, b)
	}
}

// TestObsEnabledBitwiseInert is the telemetry no-interference proof: the
// full flow (golden STA → fit → compile → QCP bisection with cut pool →
// dosePl swapping) must produce bit-identical numerics whether or not a
// Recorder rides the context.
func TestObsEnabledBitwiseInert(t *testing.T) {
	off := runFlowOnce(t, context.Background())

	rec := obs.New()
	on := runFlowOnce(t, obs.With(context.Background(), rec))

	bitsEq(t, "golden MCT", off.golden.MCT, on.golden.MCT)
	bitsEq(t, "DM nominal MCT", off.dm.Nominal.MCTps, on.dm.Nominal.MCTps)
	bitsEq(t, "DM nominal leak", off.dm.Nominal.LeakUW, on.dm.Nominal.LeakUW)
	bitsEq(t, "DM golden MCT", off.dm.Golden.MCTps, on.dm.Golden.MCTps)
	bitsEq(t, "DM golden leak", off.dm.Golden.LeakUW, on.dm.Golden.LeakUW)
	if off.dm.Probes != on.dm.Probes {
		t.Errorf("probe count differs: %d vs %d", off.dm.Probes, on.dm.Probes)
	}

	da, db := off.dm.Layers.Poly.D, on.dm.Layers.Poly.D
	if len(da) != len(db) {
		t.Fatalf("dose map size differs: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			t.Fatalf("dose map cell %d differs: %v vs %v", i, da[i], db[i])
		}
	}

	if off.dp.SwapsTried != on.dp.SwapsTried ||
		off.dp.SwapsAccepted != on.dp.SwapsAccepted {
		t.Errorf("dosePl swap trace differs: tried %d/%d accepted %d/%d",
			off.dp.SwapsTried, on.dp.SwapsTried,
			off.dp.SwapsAccepted, on.dp.SwapsAccepted)
	}
	bitsEq(t, "dosePl after MCT", off.dp.After.MCTps, on.dp.After.MCTps)
	bitsEq(t, "dosePl after leak", off.dp.After.LeakUW, on.dp.After.LeakUW)

	// The enabled run must actually have recorded something — otherwise
	// this test silently proves nothing.
	snap := rec.Snapshot()
	for _, c := range []string{"qp/solves", "sta/analyses"} {
		if snap.Counters[c] == 0 {
			t.Errorf("telemetry counter %s empty in enabled run", c)
		}
	}
	// Every bisection iteration is either a Newton step or a
	// bisection fallback, so the τ-probe counters cannot both be empty;
	// and every solve runs at least one LDLᵀ numeric phase.  (Zero-valued
	// counters are never recorded, so absence is the failure signature
	// here.)
	if snap.Counters["core/tau_newton_steps"]+snap.Counters["core/tau_bisect_fallbacks"] == 0 {
		t.Error("no τ-probe step counters recorded in enabled run")
	}
	if snap.Counters["qp/factorizations"] < 1 {
		t.Error("no LDLᵀ factorization recorded in enabled run")
	}
	// The dose QP starts from its box rows, so the run must separate
	// smoothness rows into the pool.
	if snap.Counters["core/smooth_rows_added"] < 1 {
		t.Error("core/smooth_rows_added empty: the dose run separated no smoothness row")
	}
	// Supernodal hot-path telemetry: the dense panel kernels always do
	// work on the dose-map systems, and the solver records the supernode
	// partition shape of its live factor after every solve.
	if snap.Counters["qp/dense_flops"] == 0 {
		t.Error("qp/dense_flops empty in enabled run")
	}
	for _, g := range []string{"qp/supernodes", "qp/supernode_cols_max"} {
		if snap.Gauges[g] == 0 {
			t.Errorf("supernode gauge %s empty in enabled run", g)
		}
	}
	if len(snap.Spans) == 0 {
		t.Error("no spans recorded in enabled run")
	}
	// Cut generation runs under its own span, inside the QCP span, at
	// most once per cut round.
	qcp, ok := findSpan(snap.Spans, "core/qcp")
	if !ok {
		t.Fatal("core/qcp span missing in enabled run")
	}
	cutgen, ok := findSpan(qcp.Children, "core/cutgen")
	if !ok {
		t.Fatal("core/cutgen span missing under core/qcp in enabled run")
	}
	if cutgen.Count == 0 || cutgen.Count > snap.Counters["core/cut_rounds"] {
		t.Errorf("core/cutgen span count %d, want 1..%d (core/cut_rounds)", cutgen.Count, snap.Counters["core/cut_rounds"])
	}
	// dosePl searches for critical paths on its first round and after
	// each accepted one, never after a rejected one.
	searches, accepted := snap.Counters["core/dosepl_path_searches"], snap.Counters["core/dosepl_rounds_accepted"]
	if searches == 0 || searches > accepted+1 {
		t.Errorf("core/dosepl_path_searches = %d, want 1..%d (core/dosepl_rounds_accepted + 1)", searches, accepted+1)
	}
}

// findSpan returns the first span named name in a depth-first walk of
// the tree.
func findSpan(spans []obs.SpanStat, name string) (obs.SpanStat, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
		if c, ok := findSpan(s.Children, name); ok {
			return c, true
		}
	}
	return obs.SpanStat{}, false
}

// TestWaferObsBitwiseInert extends the no-interference proof to the
// wafer consensus path and pins the multi-RHS batching telemetry: the
// coupled solve must be bit-identical with and without a Recorder, and
// the enabled run must show the lockstep batch actually firing
// (qp/solve_batches > 0 with more right-hand sides than batches — the
// whole point of sharing the factor across a column group), one span
// per stage under core/wafer, and the uncoupled fields separating
// smoothness rows.
func TestWaferObsBitwiseInert(t *testing.T) {
	comp := waferComp(t, 0.05)
	run := func(ctx context.Context) *WaferResult {
		opt := DefaultOptions()
		opt.Workers = 2
		r, err := SolveWafer(ctx, WaferRequest{Compiled: comp, Opt: opt, Wafer: smokeWafer()})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	off := run(context.Background())
	rec := obs.New()
	on := run(obs.With(context.Background(), rec))
	waferBitsEq(t, off, on)

	snap := rec.Snapshot()
	batches := snap.Counters["qp/solve_batches"]
	rhs := snap.Counters["qp/solve_rhs"]
	if batches == 0 {
		t.Error("qp/solve_batches empty: wafer consensus never used the multi-RHS path")
	}
	if rhs <= batches {
		t.Errorf("qp/solve_rhs = %d not above qp/solve_batches = %d: batches carried no extra right-hand sides", rhs, batches)
	}
	if snap.Counters["qp/batch_lockstep_solves"] == 0 {
		t.Error("qp/batch_lockstep_solves empty: column groups always fell back to sequential solves")
	}
	wafer, ok := findSpan(snap.Spans, "core/wafer")
	if !ok {
		t.Fatal("core/wafer span missing in enabled run")
	}
	for _, name := range []string{"wafer/uniform", "wafer/uncoupled", "wafer/coupled"} {
		if sp, ok := findSpan(wafer.Children, name); !ok || sp.Count != 1 {
			t.Errorf("span %s under core/wafer: found %v, count %d; want one", name, ok, sp.Count)
		}
	}
	// The uncoupled fields separate their smoothness rows; the consensus
	// fields start from all of them (TestWaferUncoupledIsSingleFieldQCP).
	if n := snap.Counters["core/smooth_rows_added"]; n == 0 {
		t.Error("core/smooth_rows_added = 0 in a wafer run: the uncoupled fields separated no smoothness row")
	}
}
