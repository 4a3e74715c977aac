// The ADMM loop.  lockstep advances a family of Solvers whose scaled
// matrices are bitwise identical through their ADMM iterations in
// lockstep: every iteration hands one right-hand side per member to the
// lead solver's LDLᵀ factor as a single multi-RHS solve
// (ldltBackend.solveBatch), so the factor is streamed through cache once
// per iteration instead of once per member, and then makes one pass over
// each member's rows of A (Solver.sweep) that finishes the iteration and
// assembles the member's next right-hand side.  It is
// the only ADMM loop: SolveCtx runs a family of one, and SolveBatchCtx
// runs the families the wafer consensus loop produces — every field of
// a column group shares P, A and the equilibration by construction and
// differs only in its bounds (the bias-shifted box) and the moving
// penalty target q, neither of which enters K = P + σI + ρAᵀA.
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
// scaled matrices and scalings, and equal ρ.  Bounds l/u, linear terms
// q and iterate state are free to differ.  The check is O(nnz) —
// trivial against the factorization and solve work it guards — and
// failing it is never an error: the caller degrades to sequential
// per-member solves.
func batchCompatible(ss []*Solver) bool {
	h := ss[0]
	for _, s := range ss[1:] {
		if s.n != h.n || s.m != h.m || s.set != h.set {
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
// one SolveCtx call per member in slice order (counted as
// qp/batch_fallbacks).  The returned slice is index-aligned with
// solvers.  A member that converges (or certifies infeasibility)
// freezes — its iterate stops moving while the rest of the family
// continues — and ρ is adapted once for the whole family from the worst
// tolerance-normalized residuals, staying equal across members so the
// family remains batchable on the next call.  A canceled context stops
// every member within one iteration, returning the usual wrapped error;
// so does a zero pivot in the shared factorization.
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
	if !batchCompatible(solvers) {
		obs.From(ctx).Add("qp/batch_fallbacks", 1)
		return solveSequential(ctx, solvers)
	}
	return lockstep(ctx, solvers)
}

// lockstep is the ADMM loop over a batch-compatible family (a family of
// one always is).  Only families of two or more members count toward
// qp/solve_batches, qp/solve_rhs and qp/batch_lockstep_solves, so a
// solo solve reports none of them.
func lockstep(ctx context.Context, solvers []*Solver) ([]*Result, error) {
	host := solvers[0]
	set := host.set
	n, m := host.n, host.m
	nb := len(solvers)
	batched := nb > 1

	results := make([]*Result, nb)
	snaps := make([]ctrSnap, nb)
	warms := make([]bool, nb)
	// Stall-restart state: ADMM with a drifted splitting variable or a
	// runaway adaptive ρ can wedge — residuals flat for hundreds of
	// iterations — while the same iterate re-anchored (z ← Ax, ρ ← ρ₀)
	// converges in a few dozen.  Each member tracks the best
	// tolerance-normalized residual score it has seen; after stallWindow
	// consecutive checks without meaningful progress it restarts in
	// place.
	bestScore := make([]float64, nb)
	stalledChecks := make([]int, nb)
	for q, s := range solvers {
		results[q] = &Result{Status: MaxIterations, RhoFinal: s.rho}
		snaps[q] = s.snapCounters()
		// A solve is a warm-start hit when it reuses iterate state — any
		// solve after the first, or after an explicit WarmStart.
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
	// rebuild marks the members' right-hand sides stale: before the first
	// x-step of the call (bounds, q or the iterate may have moved since
	// the last one), and after a residual check that moved ρ or
	// re-anchored z.  Otherwise the previous sweep has assembled them.
	rebuild := true
	for iter := 1; iter <= set.MaxIter && len(live) > 0; iter++ {
		if err := ctx.Err(); err != nil {
			cause = fmt.Errorf("qp: canceled at iteration %d: %w", iter, err)
			for _, q := range live {
				results[q].Iters = iter - 1
			}
			break
		}

		// x-step: (P + σI + ρAᵀA) x̃ = σx − q + Aᵀ(ρz − y), one
		// right-hand side per live member, one multi-RHS solve against
		// the lead solver's factor.
		xs, bs = xs[:0], bs[:0]
		for _, q := range live {
			s := solvers[q]
			if rebuild {
				s.assembleXStepRHS()
			}
			xs = append(xs, s.xt)
			bs = append(bs, s.rhs)
		}
		rebuild = false
		if err := host.lin.solveBatch(xs, bs); err != nil {
			cause = xStepError(iter, host.rho, err)
			for _, q := range live {
				results[q].Iters = iter - 1
			}
			break
		}
		if batched {
			host.nSolveBatch++
			host.nSolveRHS += int64(len(live))
		}

		// One pass over A per member: z̃ = A x̃, the over-relaxed iterate
		// updates and the next right-hand side.
		for _, q := range live {
			solvers[q].sweep()
		}

		if iter%checkEvery != 0 && iter != set.MaxIter {
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
				// Re-anchor this member's splitting variable; the ρ half
				// of the restart is shared below.
				s.a.MulVec(s.z, s.x)
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
		// restart resets to admmRho, which re-hits the first
		// factor's cache key.  Otherwise ρ scales by
		// sqrt(primScore/dualScore), the worst prim/epsP and dual/epsD
		// over the live members, and snaps onto the ρ-ladder.  The 2×
		// trigger is deliberately eager: a mild ρ misfit that the
		// classical 5× threshold tolerates can grind for hundreds of
		// iterations, and with the ρ-ladder factor cache an adaptation
		// that revisits a known rung costs a snapshot restore, not a
		// numeric refactorization.  A zero residual score leaves ρ alone.
		// Frozen members track the shared ρ too, so the family stays
		// batch-compatible for the caller's next round.
		newRho := host.rho
		if restart {
			newRho = admmRho
		} else if primScore > 0 && dualScore > 0 {
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
		rebuild = restart || newRho != host.rho
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
		s.solves++
		s.emitTelemetry(ctx, res, snaps[q], warms[q])
	}
	if batched {
		obs.From(ctx).Add("qp/batch_lockstep_solves", 1)
	}
	return results, cause
}

// solveSequential is the degraded path: each member solved as its own
// family of one, in slice order.  Results stay index-aligned; the first
// error aborts the remaining members (matching the lockstep path, where
// a canceled context stops the whole family).
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
