// Lockstep batched ADMM.  SolveBatchCtx advances a family of Solvers
// whose scaled matrices are bitwise identical through their ADMM
// iterations in lockstep: every iteration assembles one right-hand side
// per member and hands the block to the lead solver's linear backend as
// a single multi-RHS solve (linsys.solveBatch), so the LDLᵀ factor is
// streamed through cache once per iteration instead of once per member.
// The wafer consensus loop is the producer of such families: every
// field of a column group shares P, A and the equilibration by
// construction and differs only in its bounds (the bias-shifted box)
// and the moving penalty target q — neither enters K = P + σI + ρAᵀA.
//
// Determinism: members are visited in slice order at every step, the
// shared ρ adaptation aggregates the members' residual scores with max
// (order-free), and the multi-RHS solve itself is bit-identical to
// per-RHS solves (see ldlt.go).  A batch solve is therefore
// reproducible no matter how many families run side by side — the
// property TestWaferWorkerBitIdentity pins end to end.
package qp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// batchCompatible reports whether the family can share the lead
// solver's factor: identical dimensions and settings, bitwise-identical
// scaled matrices and scalings, equal ρ, and a direct (LDLᵀ) backend on
// every member.  Bounds l/u, linear terms q and iterate state are free
// to differ.  The check is O(nnz) — trivial against the factorization
// and solve work it guards — and failing it is never an error: the
// caller degrades to sequential per-member solves.
func batchCompatible(ss []*Solver) bool {
	h := ss[0]
	if h.lin.kind() != LinSysLDLT {
		return false
	}
	for _, s := range ss[1:] {
		if s.n != h.n || s.m != h.m || s.set != h.set {
			return false
		}
		if s.lin.kind() != LinSysLDLT {
			return false
		}
		if math.Float64bits(s.rho) != math.Float64bits(h.rho) ||
			math.Float64bits(s.cinv) != math.Float64bits(h.cinv) {
			return false
		}
		if !floatBitsEqual(s.d, h.d) || !floatBitsEqual(s.e, h.e) {
			return false
		}
		if !csrEqual(s.p, h.p) || !csrEqual(s.a, h.a) {
			return false
		}
	}
	return true
}

// SolveBatchCtx runs ADMM on every solver in lockstep, sharing the lead
// solver's factorization for the per-iteration x-steps when the family
// passes the bitwise compatibility validation; otherwise it degrades to
// sequential SolveCtx calls (counted as qp/batch_fallbacks).  The
// returned slice is index-aligned with solvers.  A member that
// converges (or certifies infeasibility) freezes — its iterate stops
// moving while the rest of the family continues — and ρ is adapted
// once for the whole family from the worst tolerance-normalized
// residuals, staying equal across members so the family remains
// batchable on the next call.  A canceled context stops every member
// within one iteration, returning the usual wrapped error.
func SolveBatchCtx(ctx context.Context, solvers []*Solver) ([]*Result, error) {
	if len(solvers) == 0 {
		return nil, nil
	}
	for i, s := range solvers {
		for _, t := range solvers[:i] {
			if s == t {
				return nil, errors.New("qp: solver batch lists the same solver twice")
			}
		}
	}
	if len(solvers) == 1 {
		res, err := solvers[0].SolveCtx(ctx)
		return []*Result{res}, err
	}
	if !batchCompatible(solvers) {
		obs.From(ctx).Add("qp/batch_fallbacks", 1)
		return solveSequential(ctx, solvers)
	}

	host := solvers[0]
	set := host.set
	n, m := host.n, host.m
	nb := len(solvers)

	results := make([]*Result, nb)
	snaps := make([]ctrSnap, nb)
	warms := make([]bool, nb)
	lastPrim := make([]float64, nb)
	lastDual := make([]float64, nb)
	bestScore := make([]float64, nb)
	stalledChecks := make([]int, nb)
	for q, s := range solvers {
		results[q] = &Result{Status: MaxIterations, RhoFinal: s.rho}
		snaps[q] = s.snapCounters()
		warms[q] = s.solves > 0 || s.warmed
		for i := range s.dyAcc {
			s.dyAcc[i] = 0
		}
		bestScore[q] = math.Inf(1)
	}

	live := make([]int, nb)
	for q := range live {
		live[q] = q
	}
	xs := make([][]float64, 0, nb)
	bs := make([][]float64, 0, nb)

	var cause error
	for iter := 1; iter <= set.MaxIter && len(live) > 0; iter++ {
		if err := ctx.Err(); err != nil {
			cause = fmt.Errorf("qp: canceled at iteration %d: %w", iter, err)
			for _, q := range live {
				results[q].Iters = iter - 1
			}
			break
		}

		// x-step: one right-hand side per live member, one multi-RHS
		// solve against the lead solver's backend.  The tolerance is the
		// tightest of the members' inexact-ADMM schedules (only the CG
		// path reads it; a mid-flight LDLᵀ breakdown lands there).
		tol := math.Inf(1)
		for _, q := range live {
			s := solvers[q]
			s.assembleXStepRHS()
			if t := cgTolFor(set, lastPrim[q], lastDual[q]); t < tol {
				tol = t
			}
		}
		if host.lin.kind() != LinSysLDLT {
			for _, q := range live {
				copy(solvers[q].xt, solvers[q].x) // CG warm start from x
			}
		}
		xs, bs = xs[:0], bs[:0]
		for _, q := range live {
			xs = append(xs, solvers[q].xt)
			bs = append(bs, solvers[q].rhs)
		}
		iters, lerr := host.lin.solveBatch(xs, bs, tol)
		if lerr != nil {
			// LDLᵀ numeric breakdown on the shared factor: the matrices
			// are identical, so the lead's CG fallback serves the whole
			// family (its solveBatch degrades to per-RHS CG runs).
			host.fallbackToCG()
			for _, q := range live {
				copy(solvers[q].xt, solvers[q].x)
			}
			iters, _ = host.lin.solveBatch(xs, bs, tol)
		}
		// Inner iterations come back as a per-batch total (the backend
		// does not split them by member); attribute them to the first
		// live member rather than multi-counting.
		results[live[0]].CGIters += iters

		for _, q := range live {
			s := solvers[q]
			s.a.MulVec(s.zt, s.xt)
			s.applyRelaxation()
		}

		if iter%set.CheckEvery != 0 && iter != set.MaxIter {
			continue
		}

		// Residual checks per live member; converged and infeasible
		// members freeze.  The worst tolerance-normalized residuals
		// across the members that remain drive the shared ρ.
		keep := live[:0]
		primScore, dualScore := 0.0, 0.0
		restart := false
		for _, q := range live {
			s := solvers[q]
			res := results[q]
			prim, dual, epsP, epsD := s.residuals()
			lastPrim[q], lastDual[q] = prim, dual
			res.Iters = iter
			res.PrimRes, res.DualRes = prim, dual
			if prim <= epsP && dual <= epsD {
				res.Status = Solved
				continue
			}
			if s.primalInfeasible(s.dyAcc) {
				res.Status = PrimalInfeasible
				continue
			}
			for i := range s.dyAcc {
				s.dyAcc[i] = 0
			}
			if v := prim / epsP; v > primScore {
				primScore = v
			}
			if v := dual / epsD; v > dualScore {
				dualScore = v
			}
			if score := math.Max(prim/epsP, dual/epsD); score < 0.99*bestScore[q] {
				bestScore[q] = score
				stalledChecks[q] = 0
			} else if stalledChecks[q]++; stalledChecks[q] >= stallWindow {
				// Per-member in-place restart (z re-anchored), exactly as
				// in SolveCtx; the ρ part of the restart is shared below.
				s.a.MulVec(s.z, s.x)
				lastPrim[q], lastDual[q] = 0, 0
				stalledChecks[q] = 0
				res.Restarts++
				restart = true
			}
			keep = append(keep, q)
		}
		live = keep
		if len(live) == 0 {
			break
		}
		// Shared ρ: one factor means one ρ for the family.  A stall
		// restart resets to the initial rung (re-hitting the first
		// factor's cache key); otherwise adapt from the aggregated
		// residual scores on the usual 2× trigger and ρ-ladder.  Frozen
		// members track the shared ρ too, so the family stays
		// batch-compatible for the caller's next round.
		newRho := host.rho
		if restart {
			newRho = set.Rho
		} else if set.AdaptiveRho && primScore > 0 && dualScore > 0 {
			ratio := math.Sqrt(primScore / dualScore)
			if ratio > 2 || ratio < 0.5 {
				r := host.rho * ratio
				if r < 1e-6 {
					r = 1e-6
				}
				if r > 1e6 {
					r = 1e6
				}
				newRho = rhoRung(r)
			}
		}
		if newRho != host.rho {
			for _, s := range solvers {
				s.rho = newRho
			}
		}
	}

	// Unscale and publish every member.  Frozen members kept the iterate
	// of the check they terminated at; the rest hold the final iterate.
	for q, s := range solvers {
		res := results[q]
		res.X = make([]float64, n)
		for j := 0; j < n; j++ {
			res.X[j] = s.d[j] * s.x[j]
		}
		res.Y = make([]float64, m)
		for i := 0; i < m; i++ {
			res.Y[i] = s.cinv * s.e[i] * s.y[i]
		}
		res.Obj = s.Objective(res.X)
		res.RhoFinal = s.rho
		warm := warms[q]
		s.solves++
		s.emitTelemetry(ctx, res, snaps[q], warm)
	}
	obs.From(ctx).Add("qp/batch_lockstep_solves", 1)
	return results, cause
}

// solveSequential is the degraded path: per-member SolveCtx calls in
// slice order.  Results stay index-aligned; the first error aborts the
// remaining members (matching the lockstep path, where a canceled
// context stops the whole family).
func solveSequential(ctx context.Context, solvers []*Solver) ([]*Result, error) {
	results := make([]*Result, len(solvers))
	for i, s := range solvers {
		res, err := s.SolveCtx(ctx)
		results[i] = res
		if err != nil {
			return results, err
		}
	}
	return results, nil
}
