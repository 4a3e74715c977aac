package api

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/sta"
)

func TestValidate(t *testing.T) {
	base := JobSpec{Design: "AES-65", Scale: 0.1}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"bad schema", func(s *JobSpec) { s.Schema = "dmopt-job/v9" }, "unsupported schema"},
		{"no design", func(s *JobSpec) { s.Design = "" }, "exactly one of design or preset"},
		{"both design and preset", func(s *JobSpec) { s.Preset = &gen.Preset{Name: "x"} }, "exactly one of design or preset"},
		{"unknown design", func(s *JobSpec) { s.Design = "DES-65" }, "unknown preset"},
		{"bad mode", func(s *JobSpec) { s.Mode = "lp" }, "unknown mode"},
		{"negative tau", func(s *JobSpec) { s.TauPs = -1 }, "tau_ps"},
		{"scale too big", func(s *JobSpec) { s.Scale = 1.5 }, "scale"},
		{"empty dose range", func(s *JobSpec) { s.DoseLo, s.DoseHi = 3, -3 }, "dose range"},
		{"bad linsys", func(s *JobSpec) { s.LinSys = "gpu" }, "linear-system backend"},
		{"nameless preset", func(s *JobSpec) { s.Design = ""; s.Preset = &gen.Preset{} }, "needs a name"},
		{"grid too fine", func(s *JobSpec) { s.Design, s.Scale, s.GridUm = "JPEG-90", 1, 0.1 }, "above the cap"},
		{"grid just under 5 µm", func(s *JobSpec) { s.Design, s.Scale, s.GridUm = "JPEG-90", 1, 4.99 }, "above the cap"},
		{"fine grid on a scaled die", func(s *JobSpec) { s.GridUm = 0.2 }, "above the cap"},
		{"inline die without area", func(s *JobSpec) { s.Design = ""; s.Preset = &gen.Preset{Name: "flat"} }, "bad grid spec"},
		{"max_outer above bound", func(s *JobSpec) { s.Mode = ModeWafer; s.Wafer = &WaferSpec{MaxOuter: MaxWaferOuter + 1} }, "max_outer"},
		{"negative max_outer", func(s *JobSpec) { s.Mode = ModeWafer; s.Wafer = &WaferSpec{MaxOuter: -1} }, "max_outer"},
		{"wafer fields above bound", func(s *JobSpec) {
			s.Scale, s.Mode = 0.02, ModeWafer
			s.Wafer = &WaferSpec{FieldWmm: 0.01, FieldHmm: 0.01}
		}, fmt.Sprintf("above the cap of %d fields", MaxWaferFields)},
		{"wafer without a printable field", func(s *JobSpec) { s.Mode = ModeWafer; s.Wafer = &WaferSpec{FieldWmm: 400} }, "no printable fields"},
		{"preset cells above bound", func(s *JobSpec) { s.Design, s.Scale = "", 1; s.Preset = boundPreset(); s.Preset.Cells = 100_000_000 }, "above the bounds"},
		{"preset depth above bound", func(s *JobSpec) { s.Design, s.Scale = "", 1; s.Preset = boundPreset(); s.Preset.Depth++ }, "above the bounds"},
		{"preset ports above bound", func(s *JobSpec) { s.Design, s.Scale = "", 1; s.Preset = boundPreset(); s.Preset.POs++ }, "above the bounds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mut(&spec)
			err := spec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestValidateNonFinite: NaN passes every range comparison and ±Inf
// passes the one-sided ones, so Validate refuses a non-finite value in
// each float field of JobSpec and WaferSpec with an error naming the
// field.  JSON cannot carry these numbers, but CLI flags can.
func TestValidateNonFinite(t *testing.T) {
	fields := []struct {
		key string
		set func(*JobSpec, float64)
	}{
		{"scale", func(s *JobSpec, v float64) { s.Scale = v }},
		{"tau_ps", func(s *JobSpec, v float64) { s.TauPs = v }},
		{"xi_nw", func(s *JobSpec, v float64) { s.XiNW = v }},
		{"grid_um", func(s *JobSpec, v float64) { s.GridUm = v }},
		{"delta", func(s *JobSpec, v float64) { s.Delta = v }},
		{"dose_lo", func(s *JobSpec, v float64) { s.DoseLo = v }},
		{"dose_hi", func(s *JobSpec, v float64) { s.DoseHi = v }},
		{"bias_grid_um", func(s *JobSpec, v float64) { s.BiasGridUm = v }},
		{"bias_lo_v", func(s *JobSpec, v float64) { s.BiasLoV = v }},
		{"bias_hi_v", func(s *JobSpec, v float64) { s.BiasHiV = v }},
		{"wafer.diameter_mm", func(s *JobSpec, v float64) { s.Wafer.DiameterMM = v }},
		{"wafer.field_w_mm", func(s *JobSpec, v float64) { s.Wafer.FieldWmm = v }},
		{"wafer.field_h_mm", func(s *JobSpec, v float64) { s.Wafer.FieldHmm = v }},
		{"wafer.edge_mm", func(s *JobSpec, v float64) { s.Wafer.EdgeMM = v }},
		{"wafer.center_nm", func(s *JobSpec, v float64) { s.Wafer.CenterNm = v }},
		{"wafer.edge_nm", func(s *JobSpec, v float64) { s.Wafer.EdgeNm = v }},
		{"wafer.power", func(s *JobSpec, v float64) { s.Wafer.Power = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			spec := JobSpec{Design: "AES-65", Scale: 0.1, Actuators: ActuatorsJoint}
			if strings.HasPrefix(f.key, "wafer.") {
				spec = JobSpec{Design: "AES-65", Scale: 0.1, Mode: ModeWafer, Wafer: &WaferSpec{}}
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("%s: finite base spec rejected: %v", f.key, err)
			}
			f.set(&spec, v)
			if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), f.key+" is ") {
				t.Errorf("%s = %g: err = %v, want a rejection naming %s", f.key, v, err, f.key)
			}
		}
	}
}

// boundPreset is an inline preset at every preset bound, on AES-65's
// die.
func boundPreset() *gen.Preset {
	p := gen.AES65()
	p.Name = "bound"
	p.Cells, p.Depth, p.PIs, p.POs = MaxPresetCells, MaxPresetDepth, MaxPresetPorts, MaxPresetPorts
	return &p
}

// TestValidateAtBounds: the largest grid, the most consensus rounds, a
// wafer of 10×10 mm fields (616 of them, 679 by area) and the largest
// inline preset a spec may ask for pass, raw and normalized, and so
// does every Table I preset at scale 1 sent inline.
func TestValidateAtBounds(t *testing.T) {
	specs := []JobSpec{
		{Design: "JPEG-90", GridUm: 5},
		{Design: "JPEG-90"},
		{Design: "AES-65", Scale: 0.1, GridUm: 1.7},
		{Design: "AES-65", Scale: 0.1, Mode: ModeWafer, Wafer: &WaferSpec{MaxOuter: MaxWaferOuter}},
		{Design: "AES-65", Scale: 0.1, Mode: ModeWafer, Wafer: &WaferSpec{FieldWmm: 10, FieldHmm: 10}},
		{Preset: boundPreset()},
	}
	for _, p := range gen.Presets() {
		specs = append(specs, JobSpec{Preset: &p})
	}
	for _, spec := range specs {
		for _, s := range []JobSpec{spec, spec.Normalized()} {
			if err := s.Validate(); err != nil {
				t.Errorf("%s rejected: %v", s.MarshalCanonical(), err)
			}
		}
	}
}

// TestLegacyLinSys: linsys is validated legacy input.  The values that
// name the one x-step backend pass Validate and Options and
// canonicalize exactly like a spec without the field; any other value,
// the deleted "cg" included, fails both with an error naming linsys.
func TestLegacyLinSys(t *testing.T) {
	base := JobSpec{Design: "AES-65", Scale: 0.1}
	want := base.MarshalCanonical()
	cases := []struct {
		linsys string
		ok     bool
	}{{"", true}, {"auto", true}, {"ldlt", true}, {"cg", false}, {"gpu", false}}
	for _, tc := range cases {
		spec := base
		spec.LinSys = tc.linsys
		verr := spec.Validate()
		_, oerr := spec.Options()
		if !tc.ok {
			for _, err := range []error{verr, oerr} {
				if err == nil || !strings.Contains(err.Error(), "linsys") {
					t.Errorf("linsys %q: err = %v, want a rejection naming linsys", tc.linsys, err)
				}
			}
			continue
		}
		if verr != nil || oerr != nil {
			t.Errorf("linsys %q rejected: Validate %v, Options %v", tc.linsys, verr, oerr)
		}
		if got := spec.MarshalCanonical(); got != want {
			t.Errorf("linsys %q canonicalizes to\n  %s\nwant\n  %s", tc.linsys, got, want)
		}
	}
}

// TestNormalizedIdempotent: normalization is a fixed point, so spec
// identity (MarshalCanonical) is stable.
func TestNormalizedIdempotent(t *testing.T) {
	s := JobSpec{Design: "AES-65"}.Normalized()
	if s2 := s.Normalized(); s2 != s {
		t.Fatalf("Normalized not idempotent:\n  once  %+v\n  twice %+v", s, s2)
	}
	if s.Scale != 1 || s.Mode != ModeQP || s.GridUm != 5 || s.Delta != 2 {
		t.Fatalf("defaults not materialized: %+v", s)
	}
	if s.DoseLo >= s.DoseHi {
		t.Fatalf("dose range default empty: [%g, %g]", s.DoseLo, s.DoseHi)
	}
}

func TestDesignKey(t *testing.T) {
	a := JobSpec{Design: "AES-65", Scale: 0.15}.DesignKey()
	b := JobSpec{Design: "AES-65", Scale: 0.2}.DesignKey()
	if a == b {
		t.Fatalf("different scales share key %q", a)
	}
	p := gen.Preset{Name: "mini", Cells: 100}
	inA := JobSpec{Preset: &p}.DesignKey()
	q := p
	q.Cells = 200
	inB := JobSpec{Preset: &q}.DesignKey()
	if inA == inB {
		t.Fatalf("different inline presets share key %q", inA)
	}
}

// runJob is cmd/dmopt's path: Validate, an uncached Prepare, Execute.
func runJob(t *testing.T, spec JobSpec) (*JobResult, *core.Result) {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	art, err := Prepare(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	res, dm, err := Execute(context.Background(), art, spec)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res, dm
}

// TestExecuteMatchesStages: the transport-neutral executor reproduces a
// library caller's stage calls bit for bit — generate, golden analysis,
// fit, compile and a QP at the nominal clock period — the invariant that
// lets cmd/dmopt and dmopt-serve share one contract.
func TestExecuteMatchesStages(t *testing.T) {
	ctx := context.Background()
	spec := JobSpec{Design: "AES-65", Scale: 0.1}
	res, dm := runJob(t, spec)

	p, err := spec.GenPreset()
	if err != nil {
		t.Fatalf("GenPreset: %v", err)
	}
	d, err := gen.GenerateCtx(ctx, p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	golden, err := core.GoldenNominalCtx(ctx, d, sta.DefaultConfig())
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	model, err := core.FitModelCtx(ctx, golden, false, 0)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	opt := core.DefaultOptions()
	comp, err := core.CompileCtx(ctx, golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ref, err := core.SolveQP(ctx, core.QPRequest{Compiled: comp, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatalf("SolveQP: %v", err)
	}

	pairs := [][2]float64{
		{res.MCTPs, ref.Golden.MCTps},
		{res.LeakUW, ref.Golden.LeakUW},
		{dm.PredMCT, ref.PredMCT},
		{dm.PredDeltaLeakNW, ref.PredDeltaLeakNW},
		{res.NominalMCTPs, ref.Nominal.MCTps},
		{res.NominalLeakUW, ref.Nominal.LeakUW},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("pair %d: api %v != stages %v (not bit-identical)", i, p[0], p[1])
		}
	}
	if res.SolverStatus != ref.Status {
		t.Fatalf("status %q != %q", res.SolverStatus, ref.Status)
	}
	if res.DosePl != nil || res.Wafer != nil {
		t.Fatalf("a plain QP job reports stages it did not run: dosepl %v, wafer %v", res.DosePl, res.Wafer)
	}
}

// TestResultOfQCP: the QCP mode round-trips through the spec and
// produces an improvement-signed result document.
func TestResultOfQCP(t *testing.T) {
	res, _ := runJob(t, JobSpec{Design: "AES-65", Scale: 0.1, Mode: "QCP", XiNW: 50})
	if res.Schema != Schema || res.Mode != ModeQCP {
		t.Fatalf("result header %q/%q", res.Schema, res.Mode)
	}
	if res.MCTPs <= 0 || res.NominalMCTPs <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MCTPs > res.NominalMCTPs {
		t.Fatalf("QCP degraded timing: %g > %g ps", res.MCTPs, res.NominalMCTPs)
	}
}
