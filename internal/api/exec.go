// Job execution shared by the transports: Prepare resolves the staged
// artifacts through a Cache, Execute solves against them.  The
// compile-artifact equivalence tests prove cached == cold.
package api

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/sta"
)

// Artifacts are the staged inputs one job consumes.  Golden and
// Compiled must be populated before Execute; Prepare builds them in
// order, the fitted model in between (Compiled.Model).
type Artifacts struct {
	Golden   *sta.Result
	Compiled *core.Compiled
}

// stage resolves one artifact through the cache.  build returns the
// value and its approximate byte cost; the bool reports a cache hit.
func stage[T any](ctx context.Context, c *Cache, key string, build func(context.Context) (T, int64, error)) (T, bool, error) {
	v, hit, err := c.GetOrBuild(ctx, key, func(ctx context.Context) (any, int64, error) {
		val, bytes, err := build(ctx)
		return val, bytes, err
	})
	if err != nil {
		var zero T
		return zero, hit, err
	}
	return v.(T), hit, nil
}

// Design returns the spec's generated design, built at most once per
// residency in c (a nil c builds it fresh).
func Design(ctx context.Context, spec JobSpec, c *Cache) (*gen.Design, error) {
	d, _, err := stage(ctx, c, "design/"+spec.DesignKey(), func(ctx context.Context) (*gen.Design, int64, error) {
		p, err := spec.GenPreset()
		if err != nil {
			return nil, 0, err
		}
		d, err := gen.GenerateCtx(ctx, p)
		if err != nil {
			return nil, 0, err
		}
		return d, designBytes(d), nil
	})
	return d, err
}

// Golden returns the nominal golden analysis of the spec's design.  The
// design is resolved only inside the golden's build: the analysis views
// the design it was built from through golden.In, so a job whose golden
// is cached never regenerates a design the cache has evicted.
func Golden(ctx context.Context, spec JobSpec, c *Cache) (*sta.Result, error) {
	if err := spec.Normalized().Validate(); err != nil {
		return nil, err
	}
	g, _, err := stage(ctx, c, "golden/"+spec.DesignKey(), func(ctx context.Context) (*sta.Result, int64, error) {
		d, err := Design(ctx, spec, c)
		if err != nil {
			return nil, 0, err
		}
		gctx, sp := obs.Start(ctx, "flow/golden")
		g, err := core.GoldenNominalCtx(gctx, d, sta.DefaultConfig())
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		return g, goldenBytes(g), nil
	})
	return g, err
}

// Prepare resolves the full artifact chain for a spec through c.
// Stage keys exclude the worker count: every stage is bit-identical for
// any worker count (the repo-wide determinism contract), so jobs
// differing only in budget share artifacts.  A compile served from the
// cache ticks core/compile_hits on the context's recorder, so cache
// effectiveness is observable next to core/compile_misses.
func Prepare(ctx context.Context, spec JobSpec, c *Cache) (Artifacts, error) {
	opt, err := spec.Options()
	if err != nil {
		return Artifacts{}, err
	}
	g, err := Golden(ctx, spec, c)
	if err != nil {
		return Artifacts{}, err
	}
	dKey := spec.DesignKey()
	model, _, err := stage(ctx, c, fmt.Sprintf("model/%s/both=%t", dKey, opt.BothLayers), func(ctx context.Context) (*core.Model, int64, error) {
		fctx, sp := obs.Start(ctx, "flow/fit")
		m, err := core.FitModelCtx(fctx, g, opt.BothLayers, spec.Workers)
		sp.End()
		if err != nil {
			return nil, 0, err
		}
		return m, modelBytes(m), nil
	})
	if err != nil {
		return Artifacts{}, err
	}
	co := opt.CompileOptions()
	comp, hit, err := stage(ctx, c, fmt.Sprintf("compiled/%s/%+v", dKey, co), func(ctx context.Context) (*core.Compiled, int64, error) {
		comp, err := core.CompileCtx(ctx, g, model, co)
		if err != nil {
			return nil, 0, err
		}
		return comp, comp.ApproxBytes(), nil
	})
	if err != nil {
		return Artifacts{}, err
	}
	if hit {
		obs.Add(ctx, "core/compile_hits", 1)
	}
	return Artifacts{Golden: g, Compiled: comp}, nil
}

// designBytes approximates a generated design's resident cost: per-gate
// structure, adjacency and placement slices.
func designBytes(d *gen.Design) int64 {
	b := int64(0)
	for _, g := range d.Circ.Gates {
		b += 96 + int64(len(g.Name)+len(g.Master)) + 8*int64(len(g.Fanins)+len(g.Fanouts))
	}
	b += 8 * 3 * int64(len(d.Pl.X))
	b += 8 * int64(len(d.Masters))
	return b
}

// goldenBytes approximates an analysis result: six per-gate float
// vectors plus the shared input view.
func goldenBytes(r *sta.Result) int64 {
	return 8 * 6 * int64(len(r.AOut))
}

// modelBytes approximates the fitted coefficient set.
func modelBytes(m *core.Model) int64 {
	return 8 * int64(len(m.A)+len(m.B)+len(m.Alpha)+len(m.Beta)+len(m.Gamma))
}

// WithPrivatePlacement returns artifacts whose golden analysis — and
// compiled formulation, which dosePl reads it through — views a deep
// copy of the placement coordinate slices.  A dosePl Execute mutates
// cell positions in place through golden.In.Pl; callers that share
// artifacts across concurrent jobs (the server cache) hand each dosePl
// job a private copy so no other reader of the cached design —
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
	if a.Compiled != nil {
		c := *a.Compiled
		c.Golden = &g
		a.Compiled = &c
	}
	return a
}

// Execute runs the solve stages a spec describes against prepared
// artifacts — the QP or QCP and, for a dosepl job, the dosePl rounds;
// or the wafer consensus — and returns the versioned result with the
// DMopt result it reports (nil for a wafer job).  A dosepl job mutates
// the placement inside art.Compiled.Golden.In in place (accepted swap
// rounds); callers sharing artifacts across concurrent jobs must pass
// WithPrivatePlacement artifacts.  A canceled context aborts whichever
// stage is in flight with an error wrapping context.Canceled.
func Execute(ctx context.Context, art Artifacts, spec JobSpec) (*JobResult, *core.Result, error) {
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
		return WaferResultOf(spec, wr), nil, nil
	}
	golden := art.Compiled.Golden
	var dm *core.Result
	dctx, sp := obs.Start(ctx, "flow/dmopt")
	if spec.Mode == ModeQCP {
		dm, err = core.SolveQCP(dctx, core.QCPRequest{Compiled: art.Compiled, Opt: opt})
	} else {
		tau := spec.TauPs
		if tau <= 0 {
			tau = golden.MCT
		}
		dm, err = core.SolveQP(dctx, core.QPRequest{Compiled: art.Compiled, Opt: opt, TauPs: tau})
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	var dp *core.DosePlResult
	if spec.DosePl {
		pctx, sp := obs.Start(ctx, "flow/dosepl")
		dp, err = core.DosePlCtx(pctx, golden, dm.Layers, opt, core.DefaultDosePlOptions())
		sp.End()
		if err != nil {
			return nil, nil, err
		}
	}
	return ResultOf(spec, dm, dp), dm, nil
}
