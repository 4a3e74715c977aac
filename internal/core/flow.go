package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Mode selects which DMopt formulation the flow runs.
type Mode int

const (
	// ModeQPLeakage minimizes leakage under a timing constraint
	// (Section III QP).
	ModeQPLeakage Mode = iota
	// ModeQCPTiming minimizes the clock period under a leakage
	// constraint (Section III QCP).
	ModeQCPTiming
)

func (m Mode) String() string {
	switch m {
	case ModeQPLeakage:
		return "QP"
	case ModeQCPTiming:
		return "QCP"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// FlowConfig drives the end-to-end optimization flow of Fig. 7.
type FlowConfig struct {
	Opt Options
	// Mode picks the formulation.
	Mode Mode
	// TauPs is the QP clock-period bound; 0 means the design's nominal
	// MCT ("improve leakage without degrading timing").
	TauPs float64
	// RunDosePl appends the dose-map-aware placement rounds.
	RunDosePl bool
	DosePl    DosePlOptions
}

// FlowOutcome bundles everything the flow produced.
type FlowOutcome struct {
	Golden *sta.Result // nominal golden analysis (pre-optimization)
	Model  *Model
	DM     *Result
	DosePl *DosePlResult // nil unless requested
	// Final is the last signoff: after DMopt, or after dosePl when run.
	Final Eval
}

// InputOf adapts a generated design to the STA view.
func InputOf(d *gen.Design) sta.Input {
	return sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
}

// GoldenNominal analyzes the unoptimized design.
func GoldenNominal(d *gen.Design, cfg sta.Config) (*sta.Result, error) {
	return sta.Analyze(InputOf(d), cfg, nil)
}

// GoldenNominalCtx is GoldenNominal with cancellation.
func GoldenNominalCtx(ctx context.Context, d *gen.Design, cfg sta.Config) (*sta.Result, error) {
	return sta.AnalyzeCtx(ctx, InputOf(d), cfg, nil)
}

// FlowRequest describes one end-to-end Fig. 7 run: the design plus the
// flow configuration.
type FlowRequest struct {
	Design *gen.Design
	Config FlowConfig
}

// SolveFlow executes the Fig. 7 flow: golden analysis → coefficient
// fitting → DMopt → golden signoff → optional dosePl rounds.  A
// canceled context aborts whichever stage is in flight — golden
// analysis between levels, fitting between gates, DMopt between cut
// rounds / ADMM iterations / bisection probes, dosePl between rounds —
// with an error wrapping context.Canceled.
func SolveFlow(ctx context.Context, req FlowRequest) (*FlowOutcome, error) {
	d, cfg := req.Design, req.Config
	if d == nil {
		return nil, fmt.Errorf("core: flow request has no design")
	}
	cfg.Opt = cfg.Opt.normalized()
	if cfg.RunDosePl && (cfg.Opt.useBias() || cfg.Opt.DoseOff) {
		// dosePl moves cells across the die, which both needs dose maps
		// to trade against and would invalidate the bias-domain
		// assignment (wells are fixed silicon, not re-floorplanned per
		// optimization round).
		return nil, fmt.Errorf("core: dosePl rounds require the dose-only formulation")
	}
	gctx, sp := obs.Start(ctx, "flow/golden")
	golden, err := GoldenNominalCtx(gctx, d, cfg.Opt.STA)
	sp.End()
	if err != nil {
		return nil, err
	}
	fctx, sp := obs.Start(ctx, "flow/fit")
	model, err := FitModelCtx(fctx, golden, cfg.Opt.BothLayers, cfg.Opt.Workers)
	sp.End()
	if err != nil {
		return nil, err
	}
	var dm *Result
	dctx, sp := obs.Start(ctx, "flow/dmopt")
	switch cfg.Mode {
	case ModeQPLeakage:
		tau := cfg.TauPs
		if tau <= 0 {
			tau = golden.MCT
		}
		dm, err = SolveQP(dctx, QPRequest{Golden: golden, Model: model, Opt: cfg.Opt, TauPs: tau})
	case ModeQCPTiming:
		dm, err = SolveQCP(dctx, QCPRequest{Golden: golden, Model: model, Opt: cfg.Opt})
	default:
		err = fmt.Errorf("core: unknown flow mode %v", cfg.Mode)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	out := &FlowOutcome{Golden: golden, Model: model, DM: dm, Final: dm.Golden}
	if cfg.RunDosePl {
		pctx, sp := obs.Start(ctx, "flow/dosepl")
		dp, err := DosePlCtx(pctx, golden, dm.Layers, cfg.Opt, cfg.DosePl)
		sp.End()
		if err != nil {
			return nil, err
		}
		out.DosePl = dp
		out.Final = dp.After
	}
	return out, nil
}

// BiasPerturb builds the Fig. 10 "Bias" reference design: every gate on
// the top-K critical paths receives the maximum possible exposure dose
// (+5%, i.e. ΔL = -10 nm), showing the optimization headroom left after
// the smoothness- and leakage-constrained DMopt.
func BiasPerturb(golden *sta.Result, k, maxStates int, doseHi float64) *sta.Perturb {
	in := golden.In
	n := in.Circ.NumGates()
	dl := make([]float64, n)
	for _, p := range golden.TopPaths(k, maxStates) {
		for _, id := range p.Nodes {
			if in.Masters[id] != nil {
				dl[id] = tech.DoseToLength(doseHi)
			}
		}
	}
	return &sta.Perturb{DL: dl}
}

// PathSlackProfile returns the sorted (ascending) slacks in ps of the
// top-K paths of the analysis at clock period T — the Fig. 10 y-axis.
func PathSlackProfile(r *sta.Result, k, maxStates int, period float64) []float64 {
	paths := r.TopPaths(k, maxStates)
	out := make([]float64, len(paths))
	for i, p := range paths {
		out[i] = p.Slack(period)
	}
	sort.Float64s(out)
	return out
}

// EvalPerturb runs golden STA + power on an arbitrary perturbation and
// returns the signoff snapshot (used by the uniform-dose sweep tables).
func EvalPerturb(in sta.Input, cfg sta.Config, pert *sta.Perturb) (Eval, *sta.Result, error) {
	return EvalPerturbCtx(context.Background(), in, cfg, pert)
}

// EvalPerturbCtx is EvalPerturb with cancellation.
func EvalPerturbCtx(ctx context.Context, in sta.Input, cfg sta.Config, pert *sta.Perturb) (Eval, *sta.Result, error) {
	r, err := sta.AnalyzeCtx(ctx, in, cfg, pert)
	if err != nil {
		return Eval{}, nil, err
	}
	var dl, dw, dvth []float64
	if pert != nil {
		dl, dw, dvth = pert.DL, pert.DW, pert.DVth
	}
	return Eval{MCTps: r.MCT, LeakUW: power.TotalV(in.Masters, dl, dw, dvth)}, r, nil
}
