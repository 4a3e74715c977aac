package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
)

// runFlowOnce generates a fresh design (dosePl mutates the placement, so
// the two runs must not share one) and executes the full QCP+dosePl flow
// under the given context.
func runFlowOnce(t *testing.T, ctx context.Context) *FlowOutcome {
	t.Helper()
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	dopt := DefaultDosePlOptions()
	dopt.K = 400
	dopt.Rounds = 3
	opt := DefaultOptions()
	opt.Workers = 2 // exercise the par dispatch paths in both runs
	cfg := FlowConfig{Opt: opt, Mode: ModeQCPTiming, RunDosePl: true, DosePl: dopt}
	out, err := SolveFlow(ctx, FlowRequest{Design: d, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func bitsEq(t *testing.T, name string, a, b float64) {
	t.Helper()
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s differs with telemetry enabled: %v vs %v", name, a, b)
	}
}

// TestObsEnabledBitwiseInert is the telemetry no-interference proof: the
// full flow (golden STA → fit → QCP bisection with cut pool → dosePl
// swapping) must produce bit-identical numerics whether or not a
// Recorder rides the context.
func TestObsEnabledBitwiseInert(t *testing.T) {
	off := runFlowOnce(t, context.Background())

	rec := obs.New()
	on := runFlowOnce(t, obs.With(context.Background(), rec))

	bitsEq(t, "golden MCT", off.Golden.MCT, on.Golden.MCT)
	bitsEq(t, "DM nominal MCT", off.DM.Nominal.MCTps, on.DM.Nominal.MCTps)
	bitsEq(t, "DM nominal leak", off.DM.Nominal.LeakUW, on.DM.Nominal.LeakUW)
	bitsEq(t, "DM golden MCT", off.DM.Golden.MCTps, on.DM.Golden.MCTps)
	bitsEq(t, "DM golden leak", off.DM.Golden.LeakUW, on.DM.Golden.LeakUW)
	bitsEq(t, "final MCT", off.Final.MCTps, on.Final.MCTps)
	bitsEq(t, "final leak", off.Final.LeakUW, on.Final.LeakUW)
	if off.DM.Probes != on.DM.Probes {
		t.Errorf("probe count differs: %d vs %d", off.DM.Probes, on.DM.Probes)
	}

	da, db := off.DM.Layers.Poly.D, on.DM.Layers.Poly.D
	if len(da) != len(db) {
		t.Fatalf("dose map size differs: %d vs %d", len(da), len(db))
	}
	for i := range da {
		if math.Float64bits(da[i]) != math.Float64bits(db[i]) {
			t.Fatalf("dose map cell %d differs: %v vs %v", i, da[i], db[i])
		}
	}

	if off.DosePl.SwapsTried != on.DosePl.SwapsTried ||
		off.DosePl.SwapsAccepted != on.DosePl.SwapsAccepted {
		t.Errorf("dosePl swap trace differs: tried %d/%d accepted %d/%d",
			off.DosePl.SwapsTried, on.DosePl.SwapsTried,
			off.DosePl.SwapsAccepted, on.DosePl.SwapsAccepted)
	}
	bitsEq(t, "dosePl after MCT", off.DosePl.After.MCTps, on.DosePl.After.MCTps)
	bitsEq(t, "dosePl after leak", off.DosePl.After.LeakUW, on.DosePl.After.LeakUW)

	// The enabled run must actually have recorded something — otherwise
	// this test silently proves nothing.
	snap := rec.Snapshot()
	for _, c := range []string{"qp/solves", "sta/analyses"} {
		if snap.Counters[c] == 0 {
			t.Errorf("telemetry counter %s empty in enabled run", c)
		}
	}
	// Every bisection iteration is either a Newton/secant step or a
	// bisection fallback, so the τ-probe counters cannot both be empty;
	// likewise every LDLᵀ x-step either factors a fresh (ρ, epoch) pair
	// or restores a cached one.  (Zero-valued counters are never
	// recorded, so absence is the failure signature here.)
	if snap.Counters["core/tau_newton_steps"]+snap.Counters["core/tau_bisect_fallbacks"] == 0 {
		t.Error("no τ-probe step counters recorded in enabled run")
	}
	if snap.Counters["qp/factorizations"]+snap.Counters["qp/factor_cache_hits"] == 0 {
		t.Error("no LDLᵀ factor counters recorded in enabled run")
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
// whole point of sharing the factor across a column group).
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
}
