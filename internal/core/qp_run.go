// QP solve stage (Section III-A.1 / III-B.1): minimize Δleakage under a
// fixed clock-period constraint.  SolveQP is the single ctx-first entry
// point; a QPRequest borrows a shared *Compiled artifact, so variant
// jobs pay the formulation cost once.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
)

// QPRequest describes one leakage-minimization solve.
type QPRequest struct {
	// Compiled is the formulation artifact (CompileCtx); its compile key
	// must match Opt's.
	Compiled *Compiled
	// Opt parameterizes the solve.
	Opt Options
	// TauPs is the clock-period bound in ps (MCT ≤ TauPs).
	TauPs float64
}

// SolveQP solves the Section III QP: minimize Δleakage subject to
// MCT ≤ req.TauPs plus range and smoothness constraints.  A canceled
// context aborts the solve between cut rounds / ADMM iterations with an
// error that wraps context.Canceled.
func SolveQP(ctx context.Context, req QPRequest) (*Result, error) {
	c := req.Compiled
	start := time.Now()
	ctx, sp := obs.Start(ctx, "core/qp")
	defer sp.End()
	opt := req.Opt.normalized()
	tau := req.TauPs
	if err := c.check(opt); err != nil {
		return nil, err
	}
	if tau <= 0 {
		return nil, errors.New("core: non-positive timing constraint")
	}
	if c.hasDose() && c.hasBias() {
		obs.Add(ctx, "core/joint_solves", 1)
	}
	cs := newCutSolverCompiled(c, opt)
	defer cs.resetSolver()
	_, feasible, err := cs.solveTau(ctx, tau, math.Inf(1))
	if err != nil {
		return nil, err
	}
	if !feasible {
		return nil, fmt.Errorf("core: QP infeasible at τ = %.1f ps", tau)
	}
	r, err := cs.result(ctx, 1)
	if err != nil {
		return nil, err
	}
	r.Runtime = time.Since(start)
	return r, nil
}
