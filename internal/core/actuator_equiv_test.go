package core

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// lockHash digests everything observable about a dose-only run into one
// FNV-64a word: every dose-map cell, the model predictions, the signoff
// snapshots, the probe count and the solver-effort counters.  Any bitwise
// drift in the refactored actuator pipeline — a reassociated float
// expression, a reordered constraint row, an extra solver iteration —
// changes the hash.
func lockHash(r *Result, snap obs.Snapshot) uint64 {
	h := fnv.New64a()
	w64 := func(v float64) {
		b := math.Float64bits(v)
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, v := range r.Layers.Poly.D {
		w64(v)
	}
	if r.Layers.Active != nil {
		for _, v := range r.Layers.Active.D {
			w64(v)
		}
	}
	w64(r.PredMCT)
	w64(r.PredDeltaLeakNW)
	w64(r.Golden.MCTps)
	w64(r.Golden.LeakUW)
	w64(r.Nominal.MCTps)
	w64(r.Nominal.LeakUW)
	w64(float64(r.Probes))
	for _, c := range []string{"core/qcp_probes", "core/cut_rounds", "core/cuts_added", "qp/solves", "qp/factorizations", "qp/iterations"} {
		w64(float64(snap.Counters[c]))
	}
	return h.Sum64()
}

// jointHash extends lockHash with the bias-domain voltages, so joint
// runs are pinned across worker counts by the same single-word compare.
func jointHash(r *Result, snap obs.Snapshot) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v float64) {
		b := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(float64(lockHash(r, snap)))
	w64(float64(r.BiasDomains))
	for _, v := range r.BiasV {
		w64(v)
	}
	return h.Sum64()
}

// runActuatorCase executes one golden→fit→compile→solve pipeline at
// scale 0.05 under a fresh Recorder and returns the result plus the
// telemetry snapshot.
func runActuatorCase(t *testing.T, opt Options, qcp bool, rec *obs.Recorder) (*Result, obs.Snapshot) {
	t.Helper()
	return runActuatorEngine(t, opt, qcp, SolveQP, rec)
}

// runActuatorEngine is runActuatorCase with the QP solve as a
// parameter, so a case can run the node oracle instead of the cut
// engine.
func runActuatorEngine(t *testing.T, opt Options, qcp bool, solveQP func(context.Context, QPRequest) (*Result, error), rec *obs.Recorder) (*Result, obs.Snapshot) {
	t.Helper()
	d, err := gen.GenerateCtx(context.Background(), gen.AES65().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if rec != nil {
		ctx = obs.With(ctx, rec)
	}
	golden, err := GoldenNominalCtx(ctx, d, sta.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	model, err := FitModelCtx(ctx, golden, opt.BothLayers, opt.Workers)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := CompileCtx(ctx, golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	var r *Result
	if qcp {
		r, err = SolveQCP(ctx, QCPRequest{Compiled: comp, Opt: opt})
	} else {
		r, err = solveQP(ctx, QPRequest{Compiled: comp, Opt: opt, TauPs: 0.99 * golden.MCT})
	}
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if rec != nil {
		snap = rec.Snapshot()
	}
	return r, snap
}

// TestDoseOnlyRegressionLock pins the dose-only pipeline to the exact
// bit pattern it produced before the multi-actuator refactor.  The
// constants below were generated by the pre-refactor code on the same
// design (AES-65 at scale 0.05, G=5, DefaultOptions) and reproduce
// identically at every worker count; the block-structured compile,
// sensitivity-CSR cuts and composed signoff must not move a single bit.
// The qp-node case pins the node-assembly test oracle.  The two cut
// engine constants were re-pinned once, when the cut QP began to start
// from its box rows and separate the smoothness rows like path cuts:
// that changes its trajectory and moves the maps within the separation
// tolerance (TestLazySmoothMatchesFullPrefix bounds the move).  They
// and both TestBiasRegressionLock constants were re-pinned again when
// qp/factorizations began to count every numeric phase, the ones a
// factor cache used to restore included; that moves nothing but the
// counter.
func TestDoseOnlyRegressionLock(t *testing.T) {
	cases := []struct {
		name    string
		qcp     bool
		both    bool
		solveQP func(context.Context, QPRequest) (*Result, error)
		want    uint64
	}{
		{"qcp-cuts", true, false, SolveQP, 0x3e2ebf97789084de},
		{"qp-cuts-both", false, true, SolveQP, 0x3fec4a41063e7634},
		{"qp-node", false, false, solveQPNode, 0xa50601482a63eb21},
	}
	for _, cs := range cases {
		for _, workers := range []int{1, 2, 8} {
			opt := DefaultOptions()
			opt.G = 5
			opt.Workers = workers
			opt.BothLayers = cs.both
			r, snap := runActuatorEngine(t, opt, cs.qcp, cs.solveQP, obs.New())
			if got := lockHash(r, snap); got != cs.want {
				t.Errorf("%s workers=%d: hash %#016x, want %#016x — dose-only pipeline is no longer bit-identical to the pre-actuator code",
					cs.name, workers, got, cs.want)
			}
		}
	}
}

// TestBiasRegressionLock pins the body-bias pipeline the way
// TestDoseOnlyRegressionLock pins the dose-only one: a joint dose+bias QP
// and a bias-only QCP on AES-65 at scale 0.05, hashed with jointHash
// (lockHash plus the bias-domain voltages).  The constants were recorded
// before the dose-only and bias-aware device, leakage, signoff and
// prediction paths were folded into one; ΔVth ≠ 0 must not move a bit.
// joint-qp was re-pinned when the cut QP began to separate its
// smoothness rows; the bias-only QCP has none and kept its constant.
// Both moved when qp/factorizations began to count every numeric phase.
func TestBiasRegressionLock(t *testing.T) {
	cases := []struct {
		name    string
		doseOff bool
		qcp     bool
		want    uint64
	}{
		{"joint-qp", false, false, 0x5e2f4d44279ef3b9},
		{"bias-qcp", true, true, 0xfe45498c6e428e20},
	}
	for _, cs := range cases {
		opt := DefaultOptions()
		opt.Workers = 2
		opt.DoseOff = cs.doseOff
		opt.BiasGridUm = 20
		if cs.qcp {
			opt.XiNW = 500
		}
		r, snap := runActuatorCase(t, opt, cs.qcp, obs.New())
		if r.BiasDomains == 0 || len(r.BiasV) != r.BiasDomains {
			t.Fatalf("%s: no bias solution (%d domains, %d voltages)", cs.name, r.BiasDomains, len(r.BiasV))
		}
		if got := jointHash(r, snap); got != cs.want {
			t.Errorf("%s: hash %#016x, want %#016x — the body-bias pipeline is no longer bit-identical to its recorded run",
				cs.name, got, cs.want)
		}
	}
}

// TestJointCrossWorkerBitIdentical extends the determinism contract to
// the new actuator modes: joint (dose+bias) and bias-only runs, QP and
// QCP, must hash identically at workers 1, 2 and 8.
func TestJointCrossWorkerBitIdentical(t *testing.T) {
	cases := []struct {
		name    string
		doseOff bool
		qcp     bool
	}{
		{"joint-qp", false, false},
		{"joint-qcp", false, true},
		{"bias-qp", true, false},
	}
	for _, cs := range cases {
		var ref uint64
		for i, workers := range []int{1, 2, 8} {
			opt := DefaultOptions()
			opt.Workers = workers
			opt.DoseOff = cs.doseOff
			opt.BiasGridUm = 20
			if cs.qcp {
				opt.XiNW = 500
			}
			r, snap := runActuatorCase(t, opt, cs.qcp, obs.New())
			if r.BiasDomains == 0 || len(r.BiasV) != r.BiasDomains {
				t.Fatalf("%s workers=%d: no bias solution (%d domains, %d voltages)",
					cs.name, workers, r.BiasDomains, len(r.BiasV))
			}
			h := jointHash(r, snap)
			if i == 0 {
				ref = h
				continue
			}
			if h != ref {
				t.Errorf("%s: workers=%d hash %#016x differs from workers=1 hash %#016x",
					cs.name, workers, h, ref)
			}
		}
	}
}

// TestJointObsBitwiseInert proves the new actuator telemetry never
// perturbs numerics: a joint QP run with a Recorder attached must be
// bit-identical to one without, and the enabled run must actually record
// the actuator gauges and the joint-solve counter.
func TestJointObsBitwiseInert(t *testing.T) {
	opt := DefaultOptions()
	opt.Workers = 2
	opt.BiasGridUm = 20

	off, _ := runActuatorCase(t, opt, false, nil)
	rec := obs.New()
	on, snap := runActuatorCase(t, opt, false, rec)

	bitsEq(t, "pred MCT", off.PredMCT, on.PredMCT)
	bitsEq(t, "pred Δleak", off.PredDeltaLeakNW, on.PredDeltaLeakNW)
	bitsEq(t, "golden MCT", off.Golden.MCTps, on.Golden.MCTps)
	bitsEq(t, "golden leak", off.Golden.LeakUW, on.Golden.LeakUW)
	if len(off.BiasV) != len(on.BiasV) {
		t.Fatalf("bias vector length differs: %d vs %d", len(off.BiasV), len(on.BiasV))
	}
	for i := range off.BiasV {
		if math.Float64bits(off.BiasV[i]) != math.Float64bits(on.BiasV[i]) {
			t.Fatalf("bias domain %d differs with telemetry enabled: %v vs %v",
				i, off.BiasV[i], on.BiasV[i])
		}
	}
	for i := range off.Layers.Poly.D {
		if math.Float64bits(off.Layers.Poly.D[i]) != math.Float64bits(on.Layers.Poly.D[i]) {
			t.Fatalf("dose cell %d differs with telemetry enabled", i)
		}
	}

	if snap.Gauges["core/actuator_blocks"] < 2 {
		t.Errorf("core/actuator_blocks = %v, want ≥ 2 for a joint compile", snap.Gauges["core/actuator_blocks"])
	}
	if snap.Gauges["core/bias_domains"] == 0 {
		t.Error("core/bias_domains gauge empty in enabled joint run")
	}
	if snap.Counters["core/joint_solves"] == 0 {
		t.Error("core/joint_solves counter empty in enabled joint run")
	}
}
