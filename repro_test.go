package repro_test

import (
	"context"
	"testing"

	"repro"
)

// TestPublicAPIRoundTrip drives the whole public facade the way the
// quickstart example does: generate → analyze → fit → QP → QCP → dosePl.
func TestPublicAPIRoundTrip(t *testing.T) {
	preset := repro.AES65().Scaled(0.04)
	d, err := repro.Generate(preset)
	if err != nil {
		t.Fatal(err)
	}
	if d.Circ.NumCells() < 300 {
		t.Fatalf("suspiciously small design: %d cells", d.Circ.NumCells())
	}
	golden, err := repro.Analyze(d)
	if err != nil {
		t.Fatal(err)
	}
	model, err := repro.FitModel(golden, false)
	if err != nil {
		t.Fatal(err)
	}
	opt := repro.DefaultOptions()

	qp, err := repro.SolveQP(context.Background(),
		repro.QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	if qp.Golden.LeakUW >= qp.Nominal.LeakUW {
		t.Error("QP must reduce leakage")
	}

	qcp, err := repro.SolveQCP(context.Background(), repro.QCPRequest{Golden: golden, Model: model, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if qcp.Golden.MCTps >= qcp.Nominal.MCTps {
		t.Error("QCP must improve timing")
	}

	dopt := repro.DefaultDosePlOptions()
	dopt.K = 200
	dopt.Rounds = 2
	dp, err := repro.RunDosePl(golden, qcp, opt, dopt)
	if err != nil {
		t.Fatal(err)
	}
	if dp.After.MCTps > dp.Before.MCTps {
		t.Error("dosePl must never end worse")
	}
}

// TestFlowModes exercises SolveFlow in both modes via the facade.
func TestFlowModes(t *testing.T) {
	d, err := repro.Generate(repro.AES90().Scaled(0.04))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []repro.Mode{repro.ModeQPLeakage, repro.ModeQCPTiming} {
		out, err := repro.SolveFlow(context.Background(), repro.FlowRequest{
			Design: d,
			Config: repro.FlowConfig{Opt: repro.DefaultOptions(), Mode: mode},
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if out.DM == nil || out.Final.MCTps <= 0 {
			t.Fatalf("%v: empty outcome", mode)
		}
	}
}

// TestHarnessFacade spot-checks the experiment harness re-export.
func TestHarnessFacade(t *testing.T) {
	h := repro.NewHarnessOpts(repro.WithScale(0.04), repro.WithTopK(100))
	f95, _, _, err := h.CriticalityCtx(context.Background(), "AES-65")
	if err != nil {
		t.Fatal(err)
	}
	if f95 < 0 || f95 > 1 {
		t.Fatalf("criticality out of range: %v", f95)
	}
}
