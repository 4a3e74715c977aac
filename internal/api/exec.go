// Job execution shared by the transports.  Prepare builds the staged
// artifacts (design → golden → model → compiled) fresh; the server
// substitutes its byte-budget caches stage by stage.  Execute runs the
// solve (+ optional dosePl) against prepared artifacts, so every
// transport produces bit-identical numbers by construction (and the
// compile-artifact equivalence tests prove cached == cold).
package api

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// Artifacts are the staged inputs one job consumes.  All four must be
// populated before Execute; Prepare builds them in order, a caching
// layer may supply any prefix from memory.
type Artifacts struct {
	Design   *gen.Design
	Golden   *sta.Result
	Model    *core.Model
	Compiled *core.Compiled
}

// Prepare builds the full artifact chain for a spec with no caching:
// the CLI path.  The stage spans mirror the historical flow
// ("flow/golden", "flow/fit"; the compile stage carries its own span).
func Prepare(ctx context.Context, spec JobSpec) (Artifacts, error) {
	p, err := spec.GenPreset()
	if err != nil {
		return Artifacts{}, err
	}
	d, err := gen.GenerateCtx(ctx, p)
	if err != nil {
		return Artifacts{}, err
	}
	return PrepareFrom(ctx, d, spec)
}

// PrepareFrom builds the golden/model/compiled stages over an
// already-generated design.
func PrepareFrom(ctx context.Context, d *gen.Design, spec JobSpec) (Artifacts, error) {
	opt, err := spec.Options()
	if err != nil {
		return Artifacts{}, err
	}
	gctx, sp := obs.Start(ctx, "flow/golden")
	golden, err := core.GoldenNominalCtx(gctx, d, opt.STA)
	sp.End()
	if err != nil {
		return Artifacts{}, err
	}
	fctx, sp := obs.Start(ctx, "flow/fit")
	model, err := core.FitModelCtx(fctx, golden, opt.BothLayers, spec.Workers)
	sp.End()
	if err != nil {
		return Artifacts{}, err
	}
	comp, err := core.CompileCtx(ctx, golden, model, opt.CompileOptions())
	if err != nil {
		return Artifacts{}, err
	}
	return Artifacts{Design: d, Golden: golden, Model: model, Compiled: comp}, nil
}

// WithPrivatePlacement returns artifacts whose golden analysis views a
// deep copy of the placement coordinate slices.  A dosePl Execute
// mutates cell positions in place through golden.In.Pl; callers that
// share artifacts across concurrent jobs (the server cache) hand each
// dosePl job a private copy so no other reader of the cached design —
// golden/compile rebuilds, solve-stage signoff — can observe the
// mutation.  The copied coordinates are value-identical to the
// originals, so the results stay bit-identical to the shared path.
func (a Artifacts) WithPrivatePlacement() Artifacts {
	if a.Golden == nil || a.Golden.In.Pl == nil {
		return a
	}
	pl := *a.Golden.In.Pl
	pl.X = append([]float64(nil), pl.X...)
	pl.Y = append([]float64(nil), pl.Y...)
	pl.Width = append([]float64(nil), pl.Width...)
	g := *a.Golden
	g.In.Pl = &pl
	a.Golden = &g
	return a
}

// Execute runs the solve stage(s) a spec describes against prepared
// artifacts and assembles the versioned result.  When spec.DosePl is
// set the placement inside art.Golden.In is mutated in place (accepted
// swap rounds); callers sharing artifacts across concurrent jobs must
// pass WithPrivatePlacement artifacts (or serialize and restore around
// Execute).
func Execute(ctx context.Context, art Artifacts, spec JobSpec) (*JobResult, *core.FlowOutcome, error) {
	spec = spec.Normalized()
	if art.Golden == nil || art.Compiled == nil {
		return nil, nil, fmt.Errorf("api: execute needs prepared golden and compiled artifacts")
	}
	opt, err := spec.Options()
	if err != nil {
		return nil, nil, err
	}
	if spec.Mode == ModeWafer {
		wopt, err := spec.WaferOptions()
		if err != nil {
			return nil, nil, err
		}
		wctx, sp := obs.Start(ctx, "flow/wafer")
		wr, err := core.SolveWafer(wctx, core.WaferRequest{Compiled: art.Compiled, Opt: opt, Wafer: wopt})
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		res := WaferResultOf(spec, wr)
		out := &core.FlowOutcome{Golden: art.Golden, Model: art.Model,
			Final: core.Eval{MCTps: res.MCTPs, LeakUW: res.LeakUW}}
		return res, out, nil
	}
	mode, err := spec.FlowMode()
	if err != nil {
		return nil, nil, err
	}
	var dm *core.Result
	dctx, sp := obs.Start(ctx, "flow/dmopt")
	switch mode {
	case core.ModeQPLeakage:
		tau := spec.TauPs
		if tau <= 0 {
			tau = art.Golden.MCT
		}
		dm, err = core.SolveQP(dctx, core.QPRequest{Compiled: art.Compiled, Opt: opt, TauPs: tau})
	case core.ModeQCPTiming:
		dm, err = core.SolveQCP(dctx, core.QCPRequest{Compiled: art.Compiled, Opt: opt})
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	out := &core.FlowOutcome{Golden: art.Golden, Model: art.Model, DM: dm, Final: dm.Golden}
	if spec.DosePl {
		pctx, sp := obs.Start(ctx, "flow/dosepl")
		dp, err := core.DosePlCtx(pctx, art.Golden, dm.Layers, opt, core.DefaultDosePlOptions())
		sp.End()
		if err != nil {
			return nil, nil, err
		}
		out.DosePl = dp
		out.Final = dp.After
	}
	return ResultOf(spec, out), out, nil
}

// Run is the whole one-shot path: Prepare then Execute.  cmd/dmopt and
// the synchronous server endpoint both call this.
func Run(ctx context.Context, spec JobSpec) (*JobResult, *core.FlowOutcome, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	art, err := Prepare(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	return Execute(ctx, art, spec)
}
