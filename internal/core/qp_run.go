// QP solve stage (Section III-A.1 / III-B.1): minimize Δleakage under a
// fixed clock-period constraint.  SolveQP is the single ctx-first entry
// point; a QPRequest either borrows a shared *Compiled artifact (so
// variant jobs pay the formulation cost once) or compiles on demand
// from (Golden, Model).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sta"
)

// QPRequest describes one leakage-minimization solve.  Exactly one of
// the two artifact routes must be populated: Compiled (a shared
// pre-built formulation, whose compile key Opt must match) or the
// (Golden, Model) pair, which compiles on demand.
type QPRequest struct {
	// Compiled is an optional pre-built formulation artifact.
	Compiled *Compiled
	// Golden and Model feed the on-demand compile when Compiled is nil.
	Golden *sta.Result
	Model  *Model
	// Opt parameterizes the solve; it must project onto the artifact's
	// compile key when Compiled is set.
	Opt Options
	// TauPs is the clock-period bound in ps (MCT ≤ TauPs).
	TauPs float64
}

// compiled resolves the request's formulation artifact, compiling on
// demand when no shared one was supplied.
func (req QPRequest) compiled(ctx context.Context) (*Compiled, error) {
	if req.Compiled != nil {
		return req.Compiled, nil
	}
	if req.Golden == nil || req.Model == nil {
		return nil, errors.New("core: request needs either Compiled or (Golden, Model)")
	}
	return CompileCtx(ctx, req.Golden, req.Model, req.Opt.CompileOptions())
}

// SolveQP solves the Section III QP: minimize Δleakage subject to
// MCT ≤ req.TauPs plus range and smoothness constraints.  A canceled
// context aborts the solve between cut rounds / ADMM iterations with an
// error that wraps context.Canceled.
func SolveQP(ctx context.Context, req QPRequest) (*Result, error) {
	c, err := req.compiled(ctx)
	if err != nil {
		return nil, err
	}
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
