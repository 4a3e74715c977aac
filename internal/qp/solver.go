package qp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/obs"
)

// Status reports how a solve terminated.
type Status int

const (
	// Solved means both primal and dual residuals met tolerance.
	Solved Status = iota
	// MaxIterations means the iteration budget expired first; the best
	// iterate so far is returned and may still be usable.
	MaxIterations
	// PrimalInfeasible means a certificate of primal infeasibility was
	// detected (the constraints admit no solution).
	PrimalInfeasible
)

func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case MaxIterations:
		return "max-iterations"
	case PrimalInfeasible:
		return "primal-infeasible"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Problem is a convex quadratic program
//
//	minimize   ½ xᵀPx + qᵀx
//	subject to l ≤ Ax ≤ u .
//
// P must be symmetric positive semidefinite (nil means zero, i.e. an LP).
// Equality constraints are expressed with l[i] == u[i].
type Problem struct {
	P    *CSR
	Q    []float64
	A    *CSR
	L, U []float64
}

// Validate checks dimensional consistency and that the data is
// numeric: P, q and A must be finite, and no bound may be NaN (±Inf
// bounds are the usual way to leave a side open).
func (p *Problem) Validate() error {
	n := len(p.Q)
	if n == 0 {
		return errors.New("qp: empty objective")
	}
	if err := checkFinite("q", p.Q); err != nil {
		return err
	}
	if p.P != nil {
		if p.P.M != n || p.P.N != n {
			return fmt.Errorf("qp: P is %d×%d, want %d×%d", p.P.M, p.P.N, n, n)
		}
		if err := checkFinite("P value", p.P.Val); err != nil {
			return err
		}
	}
	if p.A == nil {
		if len(p.L) != 0 || len(p.U) != 0 {
			return errors.New("qp: bounds without constraint matrix")
		}
		return nil
	}
	if p.A.N != n {
		return fmt.Errorf("qp: A has %d columns, want %d", p.A.N, n)
	}
	if len(p.L) != p.A.M || len(p.U) != p.A.M {
		return fmt.Errorf("qp: bounds length %d/%d, want %d", len(p.L), len(p.U), p.A.M)
	}
	if err := checkFinite("A value", p.A.Val); err != nil {
		return err
	}
	return checkBounds("constraint", p.L, p.U)
}

// checkFinite rejects NaN and ±Inf entries of v.  Without it a NaN
// slips through every residual test (NaN > tol is false) and the solve
// reports success.
func checkFinite(what string, v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("qp: %s %d is %v", what, i, x)
		}
	}
	return nil
}

// checkBounds rejects NaN bounds and rows with l > u.
func checkBounds(what string, l, u []float64) error {
	for i := range l {
		if math.IsNaN(l[i]) || math.IsNaN(u[i]) {
			return fmt.Errorf("qp: %s %d has a NaN bound (%g, %g)", what, i, l[i], u[i])
		}
		if l[i] > u[i] {
			return fmt.Errorf("qp: %s %d has l > u (%g > %g)", what, i, l[i], u[i])
		}
	}
	return nil
}

// Objective evaluates ½ xᵀPx + qᵀx.
func (p *Problem) Objective(x []float64) float64 {
	obj := Dot(p.Q, x)
	if p.P != nil {
		px := make([]float64, len(x))
		p.P.MulVec(px, x)
		obj += 0.5 * Dot(x, px)
	}
	return obj
}

// MaxViolation returns the largest constraint violation of x.
func (p *Problem) MaxViolation(x []float64) float64 {
	if p.A == nil {
		return 0
	}
	ax := make([]float64, p.A.M)
	p.A.MulVec(ax, x)
	v := 0.0
	for i := range ax {
		if d := p.L[i] - ax[i]; d > v {
			v = d
		}
		if d := ax[i] - p.U[i]; d > v {
			v = d
		}
	}
	return v
}

// Settings tunes the ADMM solver.  The zero value is not usable; start
// from DefaultSettings.
type Settings struct {
	MaxIter int
	EpsAbs  float64
	EpsRel  float64
	Sigma   float64 // x-regularization
}

// DefaultSettings returns the settings used across the flow.
func DefaultSettings() Settings {
	return Settings{MaxIter: 20000, EpsAbs: 1e-4, EpsRel: 1e-4, Sigma: 1e-6}
}

// Fixed ADMM parameters.  The floats are typed float64: with an untyped
// 1.6 the constant 1 − admmAlpha would fold one ulp away from the
// float64 subtraction 1 − 1.6.
const (
	admmRho    float64 = 0.1  // initial step size ρ₀
	admmAlpha  float64 = 1.6  // over-relaxation α in (0, 2)
	checkEvery         = 25   // residual/infeasibility check interval
	ruizIters          = 10   // Ruiz equilibration iterations
	epsInfeas  float64 = 1e-5 // primal-infeasibility certificate tolerance
)

// Result carries the outcome of a solve.
type Result struct {
	Status   Status
	X        []float64 // primal solution
	Y        []float64 // dual multipliers of l ≤ Ax ≤ u
	Obj      float64
	Iters    int
	PrimRes  float64
	DualRes  float64
	Restarts int // in-place stall restarts (z re-anchored, ρ reset)
	RhoFinal float64
}

// stallWindow is the number of consecutive residual checks without at
// least 1% progress on the tolerance-normalized residual score before
// the ADMM loop restarts the splitting in place.  With a check every
// checkEvery = 25 iterations this reacts within ~100 wasted iterations.
const stallWindow = 4

// Solver holds problem data in scaled form plus iterate state, so a
// sequence of related solves (the QCP bisection) can warm-start.
type Solver struct {
	set Settings

	n, m int
	// Scaled copies.
	p    *CSR
	q    []float64
	a    *CSR
	l, u []float64
	d, e []float64 // column / row equilibration scalings
	cinv float64   // inverse cost scaling

	// Iterates (scaled space).  rhs holds the right-hand side of the next
	// x-step, which sweep writes while it finishes the current iteration.
	x, y, z []float64
	xt, rhs []float64

	// Reusable scratch for the per-check residual evaluation, the
	// infeasibility certificate, and the unscaled Objective /
	// MaxViolation helpers, so per-probe signoff checks stop churning
	// the garbage collector.
	resAx, resPx, resAty []float64
	dyAcc                []float64
	objPx                []float64
	vioAx                []float64

	rho float64

	// lin is the x-step linear-system solver; the counters feed the
	// qp/factorizations, qp/refactorizations and qp/triangular_solves
	// telemetry.
	lin         *ldltBackend
	nFactor     int64
	nRefactor   int64
	nTriSolve   int64
	nCacheHit   int64
	nCacheEvict int64
	nDenseFlops int64
	nSolveBatch int64
	nSolveRHS   int64

	// solves counts completed solves; warmed records an explicit
	// WarmStart.  Together they classify a solve as warm-started (reusing
	// iterate state) for telemetry.
	solves int
	warmed bool

	orig *Problem
}

// NewSolver prepares a solver for the given problem.  The problem data is
// copied; later mutations of prob do not affect the solver.
func NewSolver(prob *Problem, set Settings) (*Solver, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	n := len(prob.Q)
	m := 0
	if prob.A != nil {
		m = prob.A.M
	}
	s := &Solver{set: set, n: n, m: m, orig: prob, rho: admmRho, cinv: 1}
	s.q = append([]float64(nil), prob.Q...)
	if prob.P != nil {
		s.p = prob.P.Clone()
	}
	if prob.A != nil {
		s.a = prob.A.Clone()
		s.a.markOneRows()
		s.l = append([]float64(nil), prob.L...)
		s.u = append([]float64(nil), prob.U...)
	} else {
		s.a = (&Triplet{m: 0, n: n}).Compile()
		s.l = nil
		s.u = nil
	}
	s.d = make([]float64, n)
	s.e = make([]float64, m)
	for i := range s.d {
		s.d[i] = 1
	}
	for i := range s.e {
		s.e[i] = 1
	}
	s.equilibrate()
	s.x = make([]float64, n)
	s.y = make([]float64, m)
	s.z = make([]float64, m)
	s.xt = make([]float64, n)
	s.rhs = make([]float64, n)
	s.resAx = make([]float64, m)
	s.resPx = make([]float64, n)
	s.resAty = make([]float64, n)
	s.dyAcc = make([]float64, m)
	s.objPx = make([]float64, n)
	s.vioAx = make([]float64, m)
	s.lin = newLDLTBackend(s)
	return s, nil
}

// Objective evaluates ½ xᵀPx + qᵀx of the ORIGINAL (unscaled) problem
// using solver scratch — the allocation-free twin of
// Problem.Objective for the hot per-probe signoff path.
func (s *Solver) Objective(x []float64) float64 {
	p := s.orig
	obj := Dot(p.Q, x)
	if p.P != nil {
		p.P.MulVec(s.objPx, x)
		obj += 0.5 * Dot(x, s.objPx)
	}
	return obj
}

// MaxViolation returns the largest original-space constraint violation
// of x using solver scratch.  Unlike Problem.MaxViolation it also
// covers rows appended with AppendRows after construction.
func (s *Solver) MaxViolation(x []float64) float64 {
	if s.m == 0 {
		return 0
	}
	// Evaluate in scaled space and unscale per row: scaled row i is
	// e_i·(row of A)·D, so violation against the scaled bounds divides
	// by e_i to recover original units.
	for j := 0; j < s.n; j++ {
		s.objPx[j] = x[j] / s.d[j]
	}
	s.a.MulVec(s.vioAx, s.objPx)
	v := 0.0
	for i := 0; i < s.m; i++ {
		ei := 1 / s.e[i]
		if dlt := (s.l[i] - s.vioAx[i]) * ei; dlt > v {
			v = dlt
		}
		if dlt := (s.vioAx[i] - s.u[i]) * ei; dlt > v {
			v = dlt
		}
	}
	return v
}

// AppendRows appends constraint rows (unscaled, with bounds l ≤ a·x ≤ u)
// to the solver in place: no re-equilibration, no symbolic
// factorization from scratch.  Columns are scaled by the existing
// equilibration; the new rows receive one-shot row scalings.  Appended
// duals start at zero, matching the zero-padded warm start the cut
// engine previously obtained from a full rebuild.  The LDLᵀ backend
// extends its pattern in place and refactors on the next solve.
func (s *Solver) AppendRows(a *CSR, l, u []float64) error {
	if a == nil || a.M == 0 {
		return nil
	}
	if a.N != s.n {
		return fmt.Errorf("qp: appended rows have %d columns, want %d", a.N, s.n)
	}
	if len(l) != a.M || len(u) != a.M {
		return fmt.Errorf("qp: appended bounds length %d/%d, want %d", len(l), len(u), a.M)
	}
	if err := checkFinite("appended A value", a.Val); err != nil {
		return err
	}
	if err := checkBounds("appended constraint", l, u); err != nil {
		return err
	}
	scaled := a.Clone()
	scaled.ScaleCols(s.d)
	eNew := scaled.RowInfNorms()
	for i := range eNew {
		eNew[i] = invSqrtSafe(eNew[i])
	}
	scaled.ScaleRows(eNew)

	mOld := s.m
	s.a = ConcatRows(s.a, scaled)
	s.a.markOneRows()
	s.m = s.a.M
	s.e = append(s.e, eNew...)
	for i := 0; i < a.M; i++ {
		s.l = append(s.l, l[i]*eNew[i])
		s.u = append(s.u, u[i]*eNew[i])
	}
	grow := func(v []float64) []float64 { return append(v, make([]float64, a.M)...) }
	s.y = grow(s.y)
	s.z = grow(s.z)
	s.resAx = grow(s.resAx)
	s.dyAcc = grow(s.dyAcc)
	s.vioAx = grow(s.vioAx)
	// Anchor the splitting variable of the new rows at their current
	// constraint value so the first residual check is not dominated by
	// a z = 0 artifact.
	for i := mOld; i < s.m; i++ {
		sum := 0.0
		for k := s.a.RowPtr[i]; k < s.a.RowPtr[i+1]; k++ {
			sum += s.a.Val[k] * s.x[s.a.Col[k]]
		}
		s.z[i] = sum
	}
	s.lin.appendRows(mOld)
	return nil
}

// equilibrate applies modified Ruiz equilibration to the stacked matrix
// [P; A] (columns) and A (rows), plus a scalar cost scaling, following
// the OSQP paper.  Badly mixed scales — dose percentages (≈ ±5) against
// arrival times (≈ thousands of ps) — make this essential.
func (s *Solver) equilibrate() {
	n, m := s.n, s.m
	// One set of buffers for all passes: dd and ee take the norms, then
	// the scalings computed from them.
	dd := make([]float64, n)
	ee := make([]float64, m)
	var colP []float64
	if s.p != nil {
		colP = make([]float64, n)
	}
	for range ruizIters {
		s.a.colInfNormsInto(dd)
		if s.p != nil {
			s.p.colInfNormsInto(colP)
		}
		for j := 0; j < n; j++ {
			norm := dd[j]
			if colP != nil && colP[j] > norm {
				norm = colP[j]
			}
			dd[j] = invSqrtSafe(norm)
		}
		s.a.rowInfNormsInto(ee)
		for i := 0; i < m; i++ {
			ee[i] = invSqrtSafe(ee[i])
		}
		// Apply: P ← D P D, q ← D q, A ← E A D, l/u ← E l/u.
		if s.p != nil {
			s.p.ScaleRows(dd)
			s.p.ScaleCols(dd)
		}
		for j := 0; j < n; j++ {
			s.q[j] *= dd[j]
			s.d[j] *= dd[j]
		}
		s.a.ScaleCols(dd)
		s.a.ScaleRows(ee)
		for i := 0; i < m; i++ {
			s.l[i] *= ee[i]
			s.u[i] *= ee[i]
			s.e[i] *= ee[i]
		}
	}
	// Cost scaling: normalize the gradient magnitude.
	g := InfNorm(s.q)
	if s.p != nil {
		cols := s.p.colInfNormsInto(colP)
		mean := 0.0
		for _, v := range cols {
			mean += v
		}
		if len(cols) > 0 {
			mean /= float64(len(cols))
		}
		if mean > g {
			g = mean
		}
	}
	if g > 0 && !math.IsInf(g, 0) {
		c := 1 / g
		if s.p != nil {
			Scale(s.p.Val, c)
		}
		Scale(s.q, c)
		s.cinv = g
	}
}

func invSqrtSafe(v float64) float64 {
	if v <= 1e-12 || math.IsInf(v, 0) {
		return 1
	}
	r := 1 / math.Sqrt(v)
	// Clamp extreme scalings for numerical sanity.
	if r > 1e6 {
		r = 1e6
	}
	if r < 1e-6 {
		r = 1e-6
	}
	return r
}

// WarmStart seeds the next Solve with an unscaled primal (and optionally
// dual) iterate.  Pass nil to leave a component unchanged.
func (s *Solver) WarmStart(x, y []float64) error {
	if x != nil {
		if len(x) != s.n {
			return fmt.Errorf("qp: warm-start x has length %d, want %d", len(x), s.n)
		}
		if err := checkFinite("warm-start x", x); err != nil {
			return err
		}
		for j := 0; j < s.n; j++ {
			s.x[j] = x[j] / s.d[j]
		}
		s.a.MulVec(s.z, s.x)
	}
	if y != nil {
		if len(y) != s.m {
			return fmt.Errorf("qp: warm-start y has length %d, want %d", len(y), s.m)
		}
		if err := checkFinite("warm-start y", y); err != nil {
			return err
		}
		for i := 0; i < s.m; i++ {
			s.y[i] = y[i] / (s.e[i] * s.cinv)
		}
	}
	s.warmed = true
	return nil
}

// UpdateLinear replaces the objective's linear term q (unscaled)
// without re-equilibrating or refactorizing: q enters only the x-step
// right-hand side, so the cached K = P + σI + ρAᵀA factorization stays
// valid.  Used by the wafer consensus-ADMM outer loop, whose penalty
// target moves every iteration while the matrices do not.  The caller's
// original Problem.Q should be updated in tandem (Objective reads it).
func (s *Solver) UpdateLinear(q []float64) error {
	if len(q) != s.n {
		return fmt.Errorf("qp: linear term has length %d, want %d", len(q), s.n)
	}
	if err := checkFinite("q", q); err != nil {
		return err
	}
	for j := 0; j < s.n; j++ {
		s.q[j] = q[j] * s.d[j] / s.cinv
	}
	return nil
}

// UpdateBounds replaces the constraint bounds (unscaled) without
// re-equilibrating, preserving warm-start state.  Used by the QCP
// bisection, which only moves the clock-period bound between probes.
func (s *Solver) UpdateBounds(l, u []float64) error {
	if len(l) != s.m || len(u) != s.m {
		return fmt.Errorf("qp: bounds length %d/%d, want %d", len(l), len(u), s.m)
	}
	if err := checkBounds("constraint", l, u); err != nil {
		return err
	}
	for i := 0; i < s.m; i++ {
		s.l[i] = l[i] * s.e[i]
		s.u[i] = u[i] * s.e[i]
	}
	return nil
}

// assembleXStepRHS builds the x-step right-hand side
// σx − q + Aᵀ(ρz − y) into s.rhs from scratch.  The ADMM loop calls it
// on the first iteration of a solve and after a residual check that
// moved ρ or re-anchored z; every other iteration takes the right-hand
// side the previous sweep left behind, which has the same bits: both
// scatter ρz_i − y_i over the rows in ascending order and skip exact
// zeros, as CSR.AddMulTVec does.
func (s *Solver) assembleXStepRHS() {
	sigma, rho := s.set.Sigma, s.rho
	rhs, x, q := s.rhs[:s.n], s.x[:s.n], s.q[:s.n]
	for j := range rhs {
		rhs[j] = sigma*x[j] - q[j]
	}
	rp, col, val := s.a.RowPtr, s.a.Col, s.a.Val
	z, y := s.z[:s.m], s.y[:s.m]
	for i := range z {
		t := rho*z[i] - y[i]
		if t == 0 {
			continue
		}
		for k := rp[i]; k < rp[i+1]; k++ {
			rhs[col[k]] += val[k] * t
		}
	}
}

// sweep finishes an ADMM iteration after the x-step and assembles the
// next x-step's right-hand side, reading A once.  x blends toward x̃ and
// rhs restarts at σx − q; then, row by row in ascending order, it forms
// z̃_i = a_i·x̃, projects the relaxed constraint value onto [l_i, u_i]
// into z_i, takes the matching dual step y_i (accumulating the dual
// movement into s.dyAcc for the infeasibility certificate) and scatters
// (ρz_i − y_i)·a_i into rhs, skipping exact zeros.  The rows run in three
// bodies — the one-entry prefix, the two-entry run after it, and
// everything else — that apply the same operations in the same order:
// a dot product starts at 0 and adds in ascending k (the one-entry
// prefix is the single product, as in CSR.MulVec).  So the result is
// bit for bit that of CSR.MulVec, the relaxed update and
// assembleXStepRHS run one after another.
func (s *Solver) sweep() {
	alpha, beta, sigma, rho := admmAlpha, 1-admmAlpha, s.set.Sigma, s.rho
	x, xt, q, rhs := s.x[:s.n], s.xt[:s.n], s.q[:s.n], s.rhs[:s.n]
	for j := range x {
		xj := alpha*xt[j] + beta*x[j]
		x[j] = xj
		rhs[j] = sigma*xj - q[j]
	}
	a := s.a
	rp, col, val := a.RowPtr, a.Col, a.Val
	z, y, l, u, dy := s.z[:s.m], s.y[:s.m], s.l[:s.m], s.u[:s.m], s.dyAcc[:s.m]
	r := 0
	for ; r < a.ones; r++ {
		c, v := col[r], val[r]
		if t := relax(r, v*xt[c], z, y, l, u, dy, alpha, beta, rho); t != 0 {
			rhs[c] += v * t
		}
	}
	for k, end := r, r+a.twos; r < end; r, k = r+1, k+2 {
		c0, c1, v0, v1 := col[k], col[k+1], val[k], val[k+1]
		zt := 0.0
		zt += v0 * xt[c0]
		zt += v1 * xt[c1]
		if t := relax(r, zt, z, y, l, u, dy, alpha, beta, rho); t != 0 {
			rhs[c0] += v0 * t
			rhs[c1] += v1 * t
		}
	}
	for ; r < len(z); r++ {
		lo, hi := rp[r], rp[r+1]
		zt := 0.0
		for k := lo; k < hi; k++ {
			zt += val[k] * xt[col[k]]
		}
		if t := relax(r, zt, z, y, l, u, dy, alpha, beta, rho); t != 0 {
			for k := lo; k < hi; k++ {
				rhs[col[k]] += val[k] * t
			}
		}
	}
}

// relax is the over-relaxed z/y step of row i given z̃_i = zt: it
// projects αz̃_i + (1 − α)z_i + y_i/ρ onto [l_i, u_i] into z_i, takes
// the matching dual step into y_i, adds the dual movement to dy_i, and
// returns ρz_i − y_i, the row's weight in the next right-hand side.
func relax(i int, zt float64, z, y, l, u, dy []float64, alpha, beta, rho float64) float64 {
	zc := alpha*zt + beta*z[i] + y[i]/rho
	zNew := zc
	if zNew < l[i] {
		zNew = l[i]
	} else if zNew > u[i] {
		zNew = u[i]
	}
	yNew := rho * (zc - zNew)
	dy[i] += yNew - y[i]
	z[i], y[i] = zNew, yNew
	return rho*zNew - yNew
}

// ctrSnap freezes the solver's backend counters at solve entry so the
// telemetry block can report per-solve deltas.
type ctrSnap struct {
	factor, refactor, trisolve       int64
	cacheHit, cacheEvict             int64
	denseFlops, solveBatch, solveRHS int64
}

func (s *Solver) snapCounters() ctrSnap {
	return ctrSnap{s.nFactor, s.nRefactor, s.nTriSolve,
		s.nCacheHit, s.nCacheEvict,
		s.nDenseFlops, s.nSolveBatch, s.nSolveRHS}
}

// emitTelemetry publishes the per-solve observation block: pure
// observation after the solve, so it cannot perturb the trajectory.
func (s *Solver) emitTelemetry(ctx context.Context, res *Result, c0 ctrSnap, warm bool) {
	rec := obs.From(ctx)
	if rec == nil {
		return
	}
	rec.Add("qp/solves", 1)
	rec.Add("qp/iterations", int64(res.Iters))
	rec.Add("qp/restarts", int64(res.Restarts))
	rec.Add("qp/factorizations", s.nFactor-c0.factor)
	rec.Add("qp/refactorizations", s.nRefactor-c0.refactor)
	rec.Add("qp/triangular_solves", s.nTriSolve-c0.trisolve)
	rec.Add("qp/factor_cache_hits", s.nCacheHit-c0.cacheHit)
	rec.Add("qp/factor_cache_evictions", s.nCacheEvict-c0.cacheEvict)
	rec.Add("qp/dense_flops", s.nDenseFlops-c0.denseFlops)
	rec.Add("qp/solve_batches", s.nSolveBatch-c0.solveBatch)
	rec.Add("qp/solve_rhs", s.nSolveRHS-c0.solveRHS)
	if warm {
		rec.Add("qp/warm_start_hits", 1)
	}
	rec.Set("qp/prim_res", res.PrimRes)
	rec.Set("qp/dual_res", res.DualRes)
	rec.Set("qp/supernodes", float64(len(s.lin.f.sPtr)-1))
	rec.Set("qp/supernode_cols_max", float64(s.lin.f.maxSuperCols))
}

// xStepError reports an x-step whose factorization hit a zero pivot.
func xStepError(iter int, rho float64, err error) error {
	return fmt.Errorf("qp: x-step at iteration %d (rho %g): %w", iter, rho, err)
}

// SolveCtx runs ADMM from the current iterate (zero on first use, or
// the previous solution / warm start on subsequent calls) as a lockstep
// family of one.  The context is checked at every ADMM iteration
// boundary, and a canceled context stops the loop within one iteration,
// returning the best iterate so far together with an error that wraps
// context.Canceled.  A zero pivot in the x-step factorization stops the
// loop the same way, with an error that wraps errNotPositiveDefinite.
func (s *Solver) SolveCtx(ctx context.Context) (*Result, error) {
	res, err := lockstep(ctx, []*Solver{s})
	return res[0], err
}

// residuals computes unscaled primal/dual residuals and their tolerances.
func (s *Solver) residuals() (prim, dual, epsP, epsD float64) {
	n, m := s.n, s.m
	// Unscaled primal residual: ‖E⁻¹(Ax̄ − z̄)‖∞ with per-row unscaling.
	ax := s.resAx
	s.a.MulVec(ax, s.x)
	var normAx, normZ float64
	for i := 0; i < m; i++ {
		ei := 1 / s.e[i]
		r := math.Abs(ax[i]-s.z[i]) * ei
		if r > prim {
			prim = r
		}
		if v := math.Abs(ax[i]) * ei; v > normAx {
			normAx = v
		}
		if v := math.Abs(s.z[i]) * ei; v > normZ {
			normZ = v
		}
	}
	// Unscaled dual residual: ‖c⁻¹D⁻¹(P̄x̄ + q̄ + Āᵀȳ)‖∞.
	px := s.resPx
	if s.p != nil {
		s.p.MulVec(px, s.x)
	} else {
		for j := range px {
			px[j] = 0
		}
	}
	aty := s.resAty
	s.a.MulTVec(aty, s.y)
	var normPx, normATy, normQ float64
	for j := 0; j < n; j++ {
		dj := s.cinv / s.d[j]
		r := math.Abs(px[j]+s.q[j]+aty[j]) * dj
		if r > dual {
			dual = r
		}
		if v := math.Abs(px[j]) * dj; v > normPx {
			normPx = v
		}
		if v := math.Abs(aty[j]) * dj; v > normATy {
			normATy = v
		}
		if v := math.Abs(s.q[j]) * dj; v > normQ {
			normQ = v
		}
	}
	epsP = s.set.EpsAbs + s.set.EpsRel*math.Max(normAx, normZ)
	epsD = s.set.EpsAbs + s.set.EpsRel*math.Max(normPx, math.Max(normATy, normQ))
	return prim, dual, epsP, epsD
}

// primalInfeasible tests the OSQP primal-infeasibility certificate on the
// accumulated dual step δy: Aᵀδy ≈ 0 with uᵀ(δy)₊ + lᵀ(δy)₋ < 0.
func (s *Solver) primalInfeasible(dy []float64) bool {
	normDy := InfNorm(dy)
	if normDy < 1e-12 {
		return false
	}
	eps := epsInfeas * normDy
	aty := s.resAty
	s.a.MulTVec(aty, dy)
	// Unscale: columns j carry d[j]; certificate needs ‖D⁻¹?‖... we work
	// in scaled space consistently: both thresholds use scaled norms.
	if InfNorm(aty) > eps {
		return false
	}
	support := 0.0
	for i := range dy {
		if dy[i] > 0 {
			if math.IsInf(s.u[i], 1) {
				return false
			}
			support += s.u[i] * dy[i]
		} else if dy[i] < 0 {
			if math.IsInf(s.l[i], -1) {
				return false
			}
			support += s.l[i] * dy[i]
		}
	}
	return support < -eps
}

// rhoRung quantizes ρ onto the geometric quarter-decade ladder
// 10^(k/4), k ∈ ℤ.  Adaptive moves only fire on a ≥2× residual
// imbalance (≈ 1.2 rungs), so the ≤ 1.33× snap never suppresses a
// genuine adaptation — but it collapses the continuum of adapted ρ
// values onto a handful of rungs that the LDLᵀ factor cache can
// actually revisit.  Stall restarts reset to
// the initial admmRho, which re-hits the first factor's exact key
// without being snapped itself.
func rhoRung(rho float64) float64 {
	return math.Pow(10, math.Round(4*math.Log10(rho))/4)
}
