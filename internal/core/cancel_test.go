package core

import (
	"context"
	"errors"
	"testing"
)

// TestRunCtxCanceled asserts the end-to-end flow surfaces a wrapped
// context.Canceled when the context is canceled before it starts.
func TestRunCtxCanceled(t *testing.T) {
	d, _ := smallGolden(t, 0.03)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveFlow(ctx, FlowRequest{Design: d, Config: FlowConfig{Opt: DefaultOptions(), Mode: ModeQPLeakage}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

// TestDMoptCtxCanceledMidFlight cancels during the QP cut rounds and
// the QCP bisection; both must abort at the next round boundary with a
// wrapped context.Canceled instead of running to completion.
func TestDMoptCtxCanceledMidFlight(t *testing.T) {
	d, golden := smallGolden(t, 0.03)
	_ = d
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveQP(ctx, QPRequest{Golden: golden, Model: model, Opt: opt, TauPs: golden.MCT}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QP: want wrapped context.Canceled, got %v", err)
	}
	if _, err := SolveQCP(ctx, QCPRequest{Golden: golden, Model: model, Opt: opt}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QCP: want wrapped context.Canceled, got %v", err)
	}
	if _, err := FitModelCtx(ctx, golden, false, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("fit: want wrapped context.Canceled, got %v", err)
	}
}

// TestDosePlCtxCanceled asserts dosePl aborts between rounds with a
// wrapped context.Canceled and leaves the placement restored.
func TestDosePlCtxCanceled(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	dm, err := SolveQCP(context.Background(), QCPRequest{Golden: golden, Model: model, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dopt := DefaultDosePlOptions()
	dopt.K = 100
	if _, err := DosePlCtx(ctx, golden, dm.Layers, opt, dopt); !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}

// TestWorkersEquivalentQPFlow asserts the whole QP flow — golden STA,
// fit, DMopt, signoff — produces identical signoff numbers at
// workers=1 and workers=8 (the tentpole acceptance criterion).
func TestWorkersEquivalentQPFlow(t *testing.T) {
	d, _ := smallGolden(t, 0.03)
	run := func(workers int) *FlowOutcome {
		opt := DefaultOptions()
		opt.Workers = workers
		out, err := SolveFlow(context.Background(), FlowRequest{Design: d, Config: FlowConfig{Opt: opt, Mode: ModeQPLeakage}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	a, b := run(1), run(8)
	if a.Final != b.Final {
		t.Fatalf("signoff differs: workers=1 %+v, workers=8 %+v", a.Final, b.Final)
	}
	if a.DM.PredMCT != b.DM.PredMCT {
		t.Fatalf("predicted optimum differs between worker counts")
	}
	if a.Golden.MCT != b.Golden.MCT {
		t.Fatalf("golden MCT differs between worker counts")
	}
}
