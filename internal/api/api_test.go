package api

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
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

// TestRunMatchesFlow: the transport-neutral executor must reproduce the
// historical flow entry point bit for bit — the invariant that lets
// cmd/dmopt and dmopt-serve share one contract.
func TestRunMatchesFlow(t *testing.T) {
	spec := JobSpec{Design: "AES-65", Scale: 0.1}
	res, out, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("api.Run: %v", err)
	}

	p, err := spec.GenPreset()
	if err != nil {
		t.Fatalf("GenPreset: %v", err)
	}
	d, err := gen.Generate(p)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	cfg, err := spec.FlowConfig()
	if err != nil {
		t.Fatalf("FlowConfig: %v", err)
	}
	ref, err := core.SolveFlow(context.Background(), core.FlowRequest{Design: d, Config: cfg})
	if err != nil {
		t.Fatalf("core.SolveFlow: %v", err)
	}

	pairs := [][2]float64{
		{out.Final.MCTps, ref.Final.MCTps},
		{out.Final.LeakUW, ref.Final.LeakUW},
		{out.DM.PredMCT, ref.DM.PredMCT},
		{out.DM.PredDeltaLeakNW, ref.DM.PredDeltaLeakNW},
		{res.NominalMCTPs, ref.DM.Nominal.MCTps},
		{res.NominalLeakUW, ref.DM.Nominal.LeakUW},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Fatalf("pair %d: api %v != flow %v (not bit-identical)", i, p[0], p[1])
		}
	}
	if res.SolverStatus != ref.DM.Status {
		t.Fatalf("status %q != %q", res.SolverStatus, ref.DM.Status)
	}
}

// TestResultOfQCP: the QCP mode round-trips through the spec and
// produces an improvement-signed result document.
func TestResultOfQCP(t *testing.T) {
	spec := JobSpec{Design: "AES-65", Scale: 0.1, Mode: "QCP", XiNW: 50}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	mode, err := spec.FlowMode()
	if err != nil || mode != core.ModeQCPTiming {
		t.Fatalf("FlowMode = %v, %v; want QCP", mode, err)
	}
	res, _, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
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
