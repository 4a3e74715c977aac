package expt

import (
	"context"
	"math"
	"testing"

	"repro/internal/api"
)

// TestHarnessMatchesJob: a table row and a dmopt job describing the
// same run must agree bit for bit on golden MCT and leakage.  The
// harness's QCP, joint-QP and bias-QP runs on AES-65 (scale 0.02,
// G = 5) are compared against api.Run of the equivalent JobSpec; the QP
// specs carry the harness's τ = 0.99·nominal MCT.
func TestHarnessMatchesJob(t *testing.T) {
	const design, scale, grid = "AES-65", 0.02, 5.0
	c := New(WithScale(scale), WithWorkers(2))
	ctx := context.Background()
	golden, err := c.GoldenCtx(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		qcp       bool
		actuators string
	}{
		{"QCP", true, ""},
		{"joint QP", false, "joint"},
		{"bias QP", false, "bias"},
	} {
		r, err := c.runDMActuators(ctx, design, grid, tc.qcp, false, 0, tc.actuators, 1)
		if err != nil {
			t.Fatalf("%s harness: %v", tc.name, err)
		}
		spec := api.JobSpec{Design: design, Scale: scale, GridUm: grid, Actuators: tc.actuators, Mode: api.ModeQCP}
		if !tc.qcp {
			spec.Mode = api.ModeQP
			spec.TauPs = 0.99 * golden.MCT
		}
		res, _, err := api.Run(ctx, spec)
		if err != nil {
			t.Fatalf("%s job: %v", tc.name, err)
		}
		t.Logf("%s: %.4f ps / %.4f µW", tc.name, r.Golden.MCTps, r.Golden.LeakUW)
		if math.Float64bits(r.Golden.MCTps) != math.Float64bits(res.MCTPs) ||
			math.Float64bits(r.Golden.LeakUW) != math.Float64bits(res.LeakUW) {
			t.Errorf("%s: harness %v ps / %v µW, job %v ps / %v µW",
				tc.name, r.Golden.MCTps, r.Golden.LeakUW, res.MCTPs, res.LeakUW)
		}
	}
}
