// QCP solve stage (Section III-A.2 / III-B.2): minimize the clock
// period under a leakage budget, by monotone bisection with the QP as
// the feasibility oracle.  SolveQCP is the single ctx-first entry
// point; a QCPRequest either borrows a shared *Compiled artifact or
// compiles on demand from (Golden, Model).
package core

import (
	"context"
	"errors"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sta"
)

// The QCP bisection stops once its bracket is narrower than bisectTol
// times the golden clock period, or after maxProbes probes.
const (
	bisectTol = 1e-3
	maxProbes = 24
)

// QCPRequest describes one clock-period-minimization solve.  Artifact
// resolution follows the same rule as QPRequest: Compiled when set,
// else an on-demand compile from (Golden, Model).
type QCPRequest struct {
	// Compiled is an optional pre-built formulation artifact.
	Compiled *Compiled
	// Golden and Model feed the on-demand compile when Compiled is nil.
	Golden *sta.Result
	Model  *Model
	// Opt parameterizes the solve; Opt.XiNW is the leakage budget ξ.
	Opt Options
}

// SolveQCP solves the Section III QCP: minimize the clock period subject
// to Δleakage ≤ Opt.XiNW, by monotone bisection on the clock period with
// the QP as the feasibility oracle: minLeak(τ) is non-increasing in τ,
// so τ is feasible iff minLeak(τ) ≤ ξ.  A canceled context aborts the
// bisection between probes (and probes between cut rounds / ADMM
// iterations) with an error that wraps context.Canceled.
func SolveQCP(ctx context.Context, req QCPRequest) (*Result, error) {
	c, err := QPRequest{Compiled: req.Compiled, Golden: req.Golden, Model: req.Model, Opt: req.Opt}.compiled(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ctx, sp := obs.Start(ctx, "core/qcp")
	defer sp.End()
	opt := req.Opt.normalized()
	if err := c.check(opt); err != nil {
		return nil, err
	}
	golden := c.Golden
	// Lower bound: linear-model MCT at the fastest reachable dose
	// (precomputed by the compile stage).
	lo, hi := c.fastMCT, golden.MCT
	if lo >= hi {
		lo = hi * 0.8
	}
	if opt.Snap {
		opt.XiNW -= c.snapMarginNW
		if c.hasBias() {
			opt.XiNW -= biasSnapMarginNW(c.Model)
		}
	}
	if c.hasDose() && c.hasBias() {
		obs.Add(ctx, "core/joint_solves", 1)
	}
	// The cut pool is shared across probes: a path cut is valid for
	// every τ.
	cs := newCutSolverCompiled(c, opt)
	xiTol := xiToleranceLeak(c.nomLeakUW, opt.XiNW)
	var bestX []float64
	probes := 0

	// Secant state: the last two feasible probe evaluations (τ, minLeak),
	// most recent last.  When the dual-based tangent is useless — early
	// probes bind few cuts, so the local slope extrapolates the frontier
	// far below the bracket — the secant through two actual evaluations
	// still tracks how minLeak steepens as the cut pool grows, and under
	// convexity its downward extrapolation lower-bounds τ* exactly like
	// the tangent root does.
	type tauEval struct{ tau, obj float64 }
	var feasPrev, feasLast tauEval

	// probe solves one clock-period candidate and reports whether it
	// fits the leakage budget; solver trouble counts as infeasible
	// rather than aborting the whole bisection, but cancellation
	// propagates.  Feasible evaluations feed the secant state.
	probe := func(tau float64) (bool, error) {
		obj, feasible, err := cs.solveTau(ctx, tau, opt.XiNW)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return false, err
			}
			return false, nil
		}
		ok := feasible && obj <= opt.XiNW+xiTol
		if ok {
			feasPrev, feasLast = feasLast, tauEval{tau, obj}
		}
		return ok, nil
	}

	// secantCandidate extrapolates the two stored feasible evaluations
	// down to where the leakage budget binds.  Both points sit on the
	// feasible side (obj < ξ), so the chord's root below them is a
	// convexity-certified lower bound on τ*, same as the tangent root.
	secantCandidate := func() (float64, bool) {
		if feasPrev.tau <= feasLast.tau || feasLast.obj <= feasPrev.obj {
			return 0, false
		}
		slope := (feasLast.obj - feasPrev.obj) / (feasLast.tau - feasPrev.tau)
		cand := feasLast.tau + (opt.XiNW-feasLast.obj)/slope
		if math.IsNaN(cand) || math.IsInf(cand, 0) {
			return 0, false
		}
		return cand, true
	}

	// First probe at the nominal period must be feasible.
	ok, err := probe(hi)
	probes++
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, errors.New("core: QCP bisection found no feasible clock period")
	}
	bestX = append(bestX[:0], cs.x...)

	// Warm bracket: when a related run already located the feasibility
	// frontier, probe a half-tolerance band around its period.  Both
	// probes landing as predicted collapses the interval to the stop
	// width — the log₂ bisection never runs; a moved frontier degrades
	// to ordinary bisection on a one-sided narrowed interval.
	if seed := opt.SeedTau; seed > lo && seed < hi && probes < maxProbes {
		guard := 0.5 * bisectTol * golden.MCT
		up := math.Min(seed+guard, hi)
		ok, err := probe(up)
		probes++
		if err != nil {
			return nil, err
		}
		if ok {
			hi = up
			bestX = append(bestX[:0], cs.x...)
			obs.Add(ctx, "core/bisect_bracket_hits", 1)
			if down := seed - guard; down > lo && probes < maxProbes &&
				(hi-lo) > bisectTol*golden.MCT {
				ok, err = probe(down)
				probes++
				if err != nil {
					return nil, err
				}
				if ok {
					hi = down
					bestX = append(bestX[:0], cs.x...)
				} else {
					lo = down
				}
			}
		} else {
			lo = up
		}
	}

	// Main loop: warm-started Newton on τ with bisection as the
	// safeguard.  Each converged probe leaves a tangent of the value
	// function minLeak(τ) behind (objective + cut-row dual sum); its
	// root extrapolates where the leakage budget binds exactly.
	// minLeak is convex non-increasing, so with exact solves the
	// tangent root lower-bounds the optimum: the step probes
	// candidate + guard (landing just inside the feasible side) and a
	// feasible hit both drops hi to the probe and raises lo to the
	// candidate, collapsing the bracket in one round trip instead of a
	// log₂ cascade.  A candidate outside the central band of the
	// bracket (stale tangent, flat slope, inexact duals) falls back to
	// plain bisection — which also bounds the worst case, since every
	// accepted probe shrinks the bracket by ≥ 5%.
	guard := 0.5 * bisectTol * golden.MCT
	newtonSteps, bisectFallbacks := 0, 0
	floorTried := false
	for probes < maxProbes && (hi-lo) > bisectTol*golden.MCT {
		t, candLo, newton := 0.0, 0.0, false
		inBand := func(tn float64) bool {
			w := hi - lo
			return tn > lo+0.05*w && tn < hi-0.05*w
		}
		nc, nok := cs.newtonCandidate(opt.XiNW)
		sc, sok := secantCandidate()
		switch {
		case nok && inBand(nc+guard):
			t, candLo, newton = nc+guard, nc, true
		case sok && inBand(sc+guard):
			t, candLo, newton = sc+guard, sc, true
		case (nok && nc+guard <= lo+0.05*(hi-lo) || sok && sc+guard <= lo+0.05*(hi-lo)) && !floorTried:
			// Both model candidates certify a lower bound at or below the
			// bracket floor: the budget looks slack on the whole interval
			// and bisection would spend log₂(w/tol) feasible probes
			// marching hi down to lo.  Probe just above the floor instead —
			// a feasible hit collapses the bracket to the guard width in
			// one step.  One attempt per run: a miss costs a single probe
			// and hands back to bisection.
			floorTried = true
			cand := lo
			if nok && nc > cand {
				cand = nc
			}
			if sok && sc > cand {
				cand = sc
			}
			t, candLo, newton = cand+guard, cand, true
		}
		if newton {
			newtonSteps++
		} else {
			t = 0.5 * (lo + hi)
			bisectFallbacks++
		}
		ok, err := probe(t)
		probes++
		if err != nil {
			return nil, err
		}
		if ok {
			hi = t
			bestX = append(bestX[:0], cs.x...)
			if newton && candLo > lo {
				// Convexity certifies the tangent root as a lower bound
				// on τ*, so a feasible Newton probe closes the bracket
				// from BOTH sides (to the guard width).  Correctness
				// does not ride on it: the answer returned is always a
				// probed-feasible hi.
				lo = candLo
			}
		} else {
			lo = t
		}
	}
	if bestX == nil {
		return nil, errors.New("core: QCP bisection found no feasible clock period")
	}
	obs.Add(ctx, "core/qcp_probes", int64(probes))
	obs.Add(ctx, "core/tau_newton_steps", int64(newtonSteps))
	obs.Add(ctx, "core/tau_bisect_fallbacks", int64(bisectFallbacks))
	copy(cs.x, bestX)
	r, err := cs.result(ctx, probes)
	if err != nil {
		return nil, err
	}
	if r.PredMCT > hi {
		r.PredMCT = hi
	}
	r.Runtime = time.Since(start)
	return r, nil
}
