// Analysis helpers around the solve stages: the nominal golden
// analysis the Fig. 7 flow starts from, the signoff of an arbitrary
// perturbation, and the Fig. 10 slack profiles.
package core

import (
	"context"
	"sort"

	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// InputOf adapts a generated design to the STA view.
func InputOf(d *gen.Design) sta.Input {
	return sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
}

// GoldenNominalCtx analyzes the unoptimized design.
func GoldenNominalCtx(ctx context.Context, d *gen.Design, cfg sta.Config) (*sta.Result, error) {
	return sta.AnalyzeCtx(ctx, InputOf(d), cfg, nil)
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

// EvalPerturbCtx runs golden STA + power on an arbitrary perturbation
// and returns the signoff snapshot (used by the uniform-dose sweep
// tables).
func EvalPerturbCtx(ctx context.Context, in sta.Input, cfg sta.Config, pert *sta.Perturb) (Eval, *sta.Result, error) {
	r, err := sta.AnalyzeCtx(ctx, in, cfg, pert)
	if err != nil {
		return Eval{}, nil, err
	}
	var dl, dw, dvth []float64
	if pert != nil {
		dl, dw, dvth = pert.DL, pert.DW, pert.DVth
	}
	return Eval{MCTps: r.MCT, LeakUW: power.Total(in.Masters, dl, dw, dvth)}, r, nil
}
