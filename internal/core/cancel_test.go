package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/sta"
)

// TestRunCtxCanceled asserts the stages in front of the solves — golden
// analysis and compile — surface a wrapped context.Canceled when the
// context is canceled before they start (the fit's cancellation is
// checked below).
func TestRunCtxCanceled(t *testing.T) {
	d, golden := smallGolden(t, 0.03)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GoldenNominalCtx(ctx, d, sta.DefaultConfig()); !errors.Is(err, context.Canceled) {
		t.Fatalf("golden: want wrapped context.Canceled, got %v", err)
	}
	if _, err := CompileCtx(ctx, golden, model, DefaultOptions().CompileOptions()); !errors.Is(err, context.Canceled) {
		t.Fatalf("compile: want wrapped context.Canceled, got %v", err)
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
	comp := mustCompile(t, golden, model, opt)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveQP(ctx, QPRequest{Compiled: comp, Opt: opt, TauPs: golden.MCT}); !errors.Is(err, context.Canceled) {
		t.Fatalf("QP: want wrapped context.Canceled, got %v", err)
	}
	if _, err := SolveQCP(ctx, QCPRequest{Compiled: comp, Opt: opt}); !errors.Is(err, context.Canceled) {
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
	dm, err := SolveQCP(context.Background(), QCPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt})
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
// fit, compile, DMopt, signoff — produces identical signoff numbers at
// workers=1 and workers=8.
func TestWorkersEquivalentQPFlow(t *testing.T) {
	d, _ := smallGolden(t, 0.03)
	run := func(workers int) (*sta.Result, *Result) {
		golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		model, err := FitModelCtx(context.Background(), golden, false, workers)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Workers = workers
		dm, err := SolveQP(context.Background(), QPRequest{Compiled: mustCompile(t, golden, model, opt), Opt: opt, TauPs: golden.MCT})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return golden, dm
	}
	ga, a := run(1)
	gb, b := run(8)
	if a.Golden != b.Golden {
		t.Fatalf("signoff differs: workers=1 %+v, workers=8 %+v", a.Golden, b.Golden)
	}
	if a.PredMCT != b.PredMCT {
		t.Fatalf("predicted optimum differs between worker counts")
	}
	if ga.MCT != gb.MCT {
		t.Fatalf("golden MCT differs between worker counts")
	}
}
