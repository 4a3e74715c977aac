package expt

import (
	"context"
	"math"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// runJob solves a spec the way cmd/dmopt does: an uncached Prepare on a
// fresh design, then Execute.
func runJob(t *testing.T, spec api.JobSpec) (*api.JobResult, *core.Result) {
	t.Helper()
	art, err := api.Prepare(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	res, dm, err := api.Execute(context.Background(), art, spec)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res, dm
}

// TestHarnessMatchesJob: a table row and a dmopt job describing the
// same run must agree bit for bit on golden MCT and leakage.  The
// harness's QCP, joint-QP and bias-QP runs on AES-65 (scale 0.02,
// G = 5) are compared against Prepare and Execute of the equivalent
// JobSpec; the QP specs carry the harness's τ = 0.99·nominal MCT.  So
// is the Table VIII row, QCP then dosePl on a private placement, against
// a dosepl job, with the harness's K at the job's default.
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
		res, _ := runJob(t, spec)
		t.Logf("%s: %.4f ps / %.4f µW", tc.name, r.Golden.MCTps, r.Golden.LeakUW)
		if math.Float64bits(r.Golden.MCTps) != math.Float64bits(res.MCTPs) ||
			math.Float64bits(r.Golden.LeakUW) != math.Float64bits(res.LeakUW) {
			t.Errorf("%s: harness %v ps / %v µW, job %v ps / %v µW",
				tc.name, r.Golden.MCTps, r.Golden.LeakUW, res.MCTPs, res.LeakUW)
		}
	}

	dm, dp, err := c.qcpDosePl(ctx, design)
	if err != nil {
		t.Fatalf("Table VIII harness: %v", err)
	}
	res, jdm := runJob(t, api.JobSpec{Design: design, Scale: scale, GridUm: gridsFor(design, scale)[0], Mode: api.ModeQCP, DosePl: true})
	if res.DosePl == nil {
		t.Fatal("dosepl job returned no placement summary")
	}
	for _, p := range []struct {
		name    string
		harness float64
		job     float64
	}{
		{"QCP MCT", dm.Golden.MCTps, jdm.Golden.MCTps},
		{"QCP leakage", dm.Golden.LeakUW, jdm.Golden.LeakUW},
		{"dosePl MCT", dp.After.MCTps, res.MCTPs},
		{"dosePl leakage", dp.After.LeakUW, res.LeakUW},
	} {
		if math.Float64bits(p.harness) != math.Float64bits(p.job) {
			t.Errorf("Table VIII %s: harness %v, job %v", p.name, p.harness, p.job)
		}
	}
	if dp.SwapsAccepted != res.DosePl.SwapsAccepted || len(dp.Rounds) != res.DosePl.Rounds {
		t.Errorf("Table VIII dosePl: harness %d swaps over %d rounds, job %d over %d",
			dp.SwapsAccepted, len(dp.Rounds), res.DosePl.SwapsAccepted, res.DosePl.Rounds)
	}
	t.Logf("Table VIII: QCP %.4f ps, dosePl %.4f ps (%d swaps)", dm.Golden.MCTps, dp.After.MCTps, dp.SwapsAccepted)
}
