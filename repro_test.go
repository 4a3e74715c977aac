package repro_test

import (
	"context"
	"testing"

	"repro"
)

// TestPublicAPIRoundTrip drives the whole public facade the way the
// examples do: generate → analyze → fit → compile → QP → QCP → dosePl.
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
	comp, err := repro.Compile(context.Background(), golden, model, opt)
	if err != nil {
		t.Fatal(err)
	}

	qp, err := repro.SolveQP(context.Background(), repro.QPRequest{Compiled: comp, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatal(err)
	}
	if qp.Golden.LeakUW >= qp.Nominal.LeakUW {
		t.Error("QP must reduce leakage")
	}

	qcp, err := repro.SolveQCP(context.Background(), repro.QCPRequest{Compiled: comp, Opt: opt})
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

// TestFlowModes runs both formulations through the facade on AES-90,
// off one compiled formulation.
func TestFlowModes(t *testing.T) {
	ctx := context.Background()
	d, err := repro.Generate(repro.AES90().Scaled(0.04))
	if err != nil {
		t.Fatal(err)
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
	comp, err := repro.Compile(ctx, golden, model, opt)
	if err != nil {
		t.Fatal(err)
	}
	qp, err := repro.SolveQP(ctx, repro.QPRequest{Compiled: comp, Opt: opt, TauPs: golden.MCT})
	if err != nil {
		t.Fatalf("QP: %v", err)
	}
	qcp, err := repro.SolveQCP(ctx, repro.QCPRequest{Compiled: comp, Opt: opt})
	if err != nil {
		t.Fatalf("QCP: %v", err)
	}
	for name, r := range map[string]*repro.Result{"QP": qp, "QCP": qcp} {
		if r.Golden.MCTps <= 0 || r.Golden.LeakUW <= 0 {
			t.Fatalf("%s: empty signoff %+v", name, r.Golden)
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
