// Package repro is a from-scratch Go reproduction of "Dose Map and
// Placement Co-Optimization for Timing Yield Enhancement and Leakage
// Power Reduction" (Jeong, Kahng, Park, Yao — DAC 2008; extended TCAD
// 2010 version).
//
// The package is the public facade over the implementation packages in
// internal/: it re-exports the design generator, the golden analysis,
// the model fit, the compile stage that builds the formulation the
// solves share, the two DMopt formulations (QP: minimize leakage under
// a clock-period bound; QCP: minimize the clock period under a leakage
// bound), the dosePl cell-swapping heuristic, and the experiment
// harness that regenerates every table and figure of the paper's
// evaluation.
//
// Quick start, the Fig. 7 flow stage by stage:
//
//	ctx := context.Background()
//	d, _ := repro.Generate(repro.AES65().Scaled(0.1))
//	golden, _ := repro.Analyze(d)
//	model, _ := repro.FitModel(golden, false)
//	opt := repro.DefaultOptions()
//	comp, _ := repro.Compile(ctx, golden, model, opt)
//	res, _ := repro.SolveQCP(ctx, repro.QCPRequest{Compiled: comp, Opt: opt})
//	fmt.Printf("MCT %.0f → %.0f ps at %.1f → %.1f µW\n",
//	        res.Nominal.MCTps, res.Golden.MCTps,
//	        res.Nominal.LeakUW, res.Golden.LeakUW)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/gen"
	"repro/internal/sta"
)

// Re-exported design/testcase types.
type (
	// Preset parameterizes a synthetic testcase (Table I stand-ins).
	Preset = gen.Preset
	// Design is a generated netlist + library + placement bundle.
	Design = gen.Design
)

// Re-exported optimization types.
type (
	// Options configures DMopt (grid size, smoothness δ, dose range,
	// layers, solver).
	Options = core.Options
	// Result is a DMopt outcome with golden signoff numbers.
	Result = core.Result
	// Eval is a golden signoff snapshot (MCT in ps, leakage in µW).
	Eval = core.Eval
	// DosePlOptions are the γ knobs of the cell-swapping heuristic.
	DosePlOptions = core.DosePlOptions
	// DosePlResult reports the dosePl rounds.
	DosePlResult = core.DosePlResult
	// Model holds the fitted per-instance delay/leakage coefficients.
	Model = core.Model
	// Compiled is the formulation artifact the solves share (Compile).
	Compiled = core.Compiled
	// Timing is a full golden static-timing analysis.
	Timing = sta.Result
	// QPRequest describes one leakage-minimization solve (SolveQP).
	QPRequest = core.QPRequest
	// QCPRequest describes one clock-period-minimization solve (SolveQCP).
	QCPRequest = core.QCPRequest
)

// Testcase presets (Table I).
var (
	AES65   = gen.AES65
	JPEG65  = gen.JPEG65
	AES90   = gen.AES90
	JPEG90  = gen.JPEG90
	Presets = gen.Presets
)

// Generate builds the synthetic design for a preset.
func Generate(p Preset) (*Design, error) { return GenerateCtx(context.Background(), p) }

// GenerateCtx is Generate with cancellation: a canceled context aborts
// the endpoint-rewiring analyses with an error wrapping
// context.Canceled.
func GenerateCtx(ctx context.Context, p Preset) (*Design, error) {
	return gen.GenerateCtx(ctx, p)
}

// DefaultOptions returns the paper's main configuration (5 µm grid,
// δ = 2%, ±5% dose, poly layer, ξ = 0).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultDosePlOptions returns the paper's dosePl experiment knobs.
func DefaultDosePlOptions() DosePlOptions { return core.DefaultDosePlOptions() }

// Analyze runs golden STA on the unoptimized design.
func Analyze(d *Design) (*Timing, error) {
	return AnalyzeCtx(context.Background(), d)
}

// AnalyzeCtx is Analyze with cancellation.
func AnalyzeCtx(ctx context.Context, d *Design) (*Timing, error) {
	return core.GoldenNominalCtx(ctx, d, sta.DefaultConfig())
}

// FitModel calibrates the per-instance linear-delay / quadratic-leakage
// coefficients at the golden operating points.
func FitModel(t *Timing, bothLayers bool) (*Model, error) {
	return FitModelCtx(context.Background(), t, bothLayers, 0)
}

// FitModelCtx is FitModel with cancellation and a worker-count knob.
func FitModelCtx(ctx context.Context, t *Timing, bothLayers bool, workers int) (*Model, error) {
	return core.FitModelCtx(ctx, t, bothLayers, workers)
}

// Compile builds the formulation artifact that QP and QCP solves with
// opt read from the golden analysis and its fitted model.  Solves whose
// options share the compile key (grid, δ, dose range, layers,
// actuators) share one artifact; a canceled context aborts the build.
func Compile(ctx context.Context, t *Timing, m *Model, opt Options) (*Compiled, error) {
	return core.CompileCtx(ctx, t, m, opt.CompileOptions())
}

// SolveQP is the ctx-first QP entry point: minimize Δleakage subject to
// MCT ≤ req.TauPs (Section III QP).
func SolveQP(ctx context.Context, req QPRequest) (*Result, error) {
	return core.SolveQP(ctx, req)
}

// SolveQCP is the ctx-first QCP entry point: minimize the clock period
// subject to Δleakage ≤ req.Opt.XiNW (Section III QCP, solved by
// bisection over the QP).
func SolveQCP(ctx context.Context, req QCPRequest) (*Result, error) {
	return core.SolveQCP(ctx, req)
}

// RunDosePl runs the cell-swapping placement rounds on an optimized
// dose map (Appendix, Algorithm 1).  The design's placement is mutated
// when rounds are accepted.
func RunDosePl(t *Timing, r *Result, opt Options, dopt DosePlOptions) (*DosePlResult, error) {
	return RunDosePlCtx(context.Background(), t, r, opt, dopt)
}

// RunDosePlCtx is RunDosePl with cancellation: a canceled context
// aborts between swap rounds, leaving the placement in its last
// consistent state, with an error wrapping context.Canceled.
func RunDosePlCtx(ctx context.Context, t *Timing, r *Result, opt Options, dopt DosePlOptions) (*DosePlResult, error) {
	return core.DosePlCtx(ctx, t, r.Layers, opt, dopt)
}

// Harness is the experiment context that regenerates the paper's tables
// and figures; see cmd/tables and bench_test.go.  It is safe for
// concurrent use.
type Harness = expt.Context

// HarnessOption configures a Harness (see WithScale, WithTopK,
// WithWorkers).
type HarnessOption = expt.Option

// Harness options re-exported from the experiment package.
var (
	// WithScale shrinks every preset by a factor in (0, 1].
	WithScale = expt.WithScale
	// WithTopK sets the top-path count for path-based experiments.
	WithTopK = expt.WithTopK
	// WithWorkers bounds the harness's parallel fan-out.
	WithWorkers = expt.WithWorkers
)

// NewHarnessOpts returns an experiment harness with the paper's
// configuration (full design sizes, K = 10 000, GOMAXPROCS workers),
// adjusted by the options.
func NewHarnessOpts(opts ...HarnessOption) *Harness { return expt.New(opts...) }
