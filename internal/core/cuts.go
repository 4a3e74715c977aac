// Cutting-plane solve stage: the solve engine of both DMopt
// formulations.  It solves the paper's node-based program (Eqs. 2-12,
// whose verbatim assembly is kept as a test oracle) but represents the
// timing constraints by path cuts generated on demand:
//
//	nom(π) + Σ_{p∈π} (A_p·Ds·dP_{g(p)} + B_p·Ds·dA_{g(p)}) ≤ τ
//
// for each path π whose linear-model delay exceeds τ at the current
// dose iterate.  Arrival-time variables — which carry no objective
// curvature and slow the first-order QP solver badly — disappear; the
// QP retains only dose variables with strictly convex leakage cost.
// Cuts are valid for every clock-period probe, so the QCP bisection
// shares one growing pool.
//
// The paper's dose smoothness rows (Eqs. 4/9) are separated the same
// way.  The QP starts from the box rows alone; after each solve a scan
// of the grid's stencil finds the neighbour pairs the clamped iterate
// violates by more than smoothSepTol, and their rows join the pool with
// bounds [−δ, δ].  They hold for every τ as well, so they persist
// across probes, and the QP carries only the few that bind instead of a
// grid Laplacian in AᵀA.
//
// A cutSolver borrows the immutable *Compiled formulation (fixed rows,
// objective terms, grid maps) and owns the per-run mutable state: the
// cut pool, the warm-start iterate, and the persistent qp.Solver.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/dosemap"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/qp"
	"repro/internal/sta"
)

// Cut-engine limits.  A probe runs at most cutRounds cut rounds; each
// round enumerates at most cutsPerRound paths; and a probe is accepted
// once its linear-model clock period is within cutTolRel × the golden
// MCT of τ.  A smoothness row is pooled once the clamped iterate
// violates it by more than smoothSepTol dose percent.
const (
	cutRounds    = 60
	cutsPerRound = 64
	cutTolRel    = 2e-4
	smoothSepTol = 1e-2
)

// cut is one pooled constraint row over the actuator variables: a path
// cut nom + a·x ≤ τ, or (smooth) a dose smoothness row −δ ≤ a·x ≤ δ of
// one stencil pair.
type cut struct {
	cols   []int
	vals   []float64
	nom    float64 // path cut: dose-independent path delay in ps
	smooth bool
}

// cutPool is the growing pool of path cuts and separated smoothness
// rows, shared by every clock-period probe (both are valid for all τ)
// and, in the wafer consensus, by every member of a column group.
// Members of a group add their rows in turn; the mutex keeps the pool
// safe for any future concurrent writer.
type cutPool struct {
	mu     sync.Mutex
	cuts   []cut
	seen   map[string]bool
	smooth int // smoothness rows among cuts
}

// snapshot returns the current cuts.  The returned slice is never
// mutated in place (add only appends), so callers may read it without
// holding the lock.
func (p *cutPool) snapshot() []cut {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts[:len(p.cuts):len(p.cuts)]
}

// add appends a copy of c unless a cut with the same key (see
// appendCutKey) is already pooled; it reports whether the cut was new.
// c may alias scratch buffers: only a new cut's rows are copied.
func (p *cutPool) add(key []byte, c cut) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.seen[string(key)] {
		return false
	}
	p.seen[string(key)] = true
	c.cols = append([]int(nil), c.cols...)
	c.vals = append([]float64(nil), c.vals...)
	p.cuts = append(p.cuts, c)
	if c.smooth {
		p.smooth++
	}
	return true
}

func newCutPool() *cutPool { return &cutPool{seen: make(map[string]bool)} }

func (p *cutPool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cuts)
}

// counts returns the numbers of pooled path cuts and smoothness rows.
func (p *cutPool) counts() (paths, smooth int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cuts) - p.smooth, p.smooth
}

type cutSolver struct {
	comp *Compiled
	opt  Options

	nG   int
	nVar int
	// clampN bounds the post-solve box clamp: only variables below this
	// index are dose variables subject to [DoseLo, DoseHi].  The wafer
	// consensus formulation appends auxiliary slit-profile variables
	// (column means and deviations) that must not be clamped.
	clampN int

	// pd is the cutSolver's own copy of the compiled objective diagonal
	// (tests perturb it in place to build degenerate instances); q is the
	// shared compiled linear term, read-only by convention.
	pd, q []float64
	pool  *cutPool
	x     []float64 // warm-start iterate

	// Persistent solver state.  The assembled problem and its qp.Solver
	// are kept across cut rounds and bisection probes: when only τ moves
	// the path-cut bounds are updated in place (no CSR rebuild, no
	// re-equilibration), and when the pool grows the new rows are
	// appended with zero duals — pooled rows sit after the compiled
	// fixed rows, so saved dual indices stay valid.  Warm duals are
	// what keeps the ADMM iteration count low round over round; a cold y
	// resets the active-set estimate and regularly forced 6x-budget
	// retries.
	solver    *qp.Solver
	prob      *qp.Problem
	builtCuts int
	builtTau  float64
	y         []float64 // last duals (unscaled), aligned to prob rows

	rounds, solves int
	// maxRounds is the round budget of one probe (cutRounds; tests
	// lower it).
	maxRounds int

	// Tangent information of the most recent converged cut round: the
	// probed clock period, the model objective there, and the derivative
	// estimate dminLeak/dτ = −Σ y_i over the cut rows (each cut's upper
	// bound is τ − nom, so the bound moves one-for-one with τ and the
	// dual sum prices the move).  The QCP outer loop turns this into a
	// warm-started Newton step on τ; tangentOK is false until a round
	// converges and is reset at every probe's solveTauGroup entry, so
	// stale probes never feed a step.
	tangentTau   float64
	tangentObj   float64
	tangentSlope float64
	tangentOK    bool

	// rec is the telemetry recorder, refreshed from the context at each
	// solveTauGroup entry (ensure has no context of its own).
	rec *obs.Recorder

	// Cut-generation scratch, reused round over round: makeCut's dense
	// accumulator (acc, with mark flagging the touched columns listed in
	// touched), the row it or separateSmooth emits, the dedup key buffer,
	// the arrivals of the linear timing model, and the bounds and rows
	// ensure appends to the live solver.
	acc        []float64
	mark       []bool
	touched    []int
	rowCols    []int
	rowVals    []float64
	key        []byte
	arr        []float64
	newL, newU []float64
	newCols    [][]int
	newVals    [][]float64
}

// resetSolver releases the persistent solver's storage to qp's pool and
// drops it, so the next round rebuilds from scratch.  Called when a
// solve diverged (infeasible certificate or stall), since its internal
// iterate would poison later warm starts, and when the run is done with
// the solver.
func (cs *cutSolver) resetSolver() {
	if cs.solver != nil {
		cs.solver.Release()
	}
	cs.solver = nil
	cs.prob = nil
	cs.builtCuts = 0
}

// newtonCandidate extrapolates the clock period where the leakage
// budget ξ is met exactly, from the last converged round's tangent:
// τ* ≈ τ_p + (ξ − obj_p)/slope_p.  minLeak(τ) is convex and
// non-increasing, so with exact solves the tangent root is a LOWER
// bound on the true τ* — the outer loop probes candidate + guard and
// may raise its lower bracket to the candidate when the probe lands
// feasible.  Reports false when no tangent is available or the slope
// is not usefully negative (no active cuts: τ does not bind).
func (cs *cutSolver) newtonCandidate(xiNW float64) (float64, bool) {
	if !cs.tangentOK || !(cs.tangentSlope < 0) {
		return 0, false
	}
	cand := cs.tangentTau + (xiNW-cs.tangentObj)/cs.tangentSlope
	if math.IsNaN(cand) || math.IsInf(cand, 0) {
		return 0, false
	}
	return cand, true
}

// ensure makes the persistent solver match (tau, cuts) and warm-starts
// it at cs.x: bound update only when just τ moved, rebuild (with dual
// carry-over) when the cut pool grew.
func (cs *cutSolver) ensure(tau float64, cuts []cut) error {
	if cs.solver != nil && len(cuts) == cs.builtCuts {
		cs.rec.Add("core/solver_reuses", 1)
		return cs.retarget(tau, cuts)
	}
	if cs.solver != nil && len(cuts) > cs.builtCuts {
		// Append-only growth: pooled rows sit after the compiled fixed
		// rows, so new rows extend the live solver in place — the
		// factorized/preconditioned state for the old rows survives and
		// only the appended rows cost symbolic work.  Duals persist inside
		// the solver with zeros on the new rows, exactly the zero-padded
		// carry-over the rebuild path used to reconstruct.
		cs.rec.Add("core/solver_row_appends", 1)
		l, u, cols, vals := cs.newL[:0], cs.newU[:0], cs.newCols[:0], cs.newVals[:0]
		for _, c := range cuts[cs.builtCuts:] {
			lo, hi := cs.rowBounds(c, tau)
			l, u = append(l, lo), append(u, hi)
			cols, vals = append(cols, c.cols), append(vals, c.vals)
		}
		cs.newL, cs.newU, cs.newCols, cs.newVals = l, u, cols, vals
		newA := qp.CSRFromRows(cs.nVar, cols, vals)
		if err := cs.solver.AppendRows(newA, l, u); err != nil {
			return err
		}
		cs.prob.A.AppendRows(newA)
		cs.prob.L = append(cs.prob.L, l...)
		cs.prob.U = append(cs.prob.U, u...)
		cs.builtCuts = len(cuts)
		return cs.retarget(tau, cuts)
	}
	cs.rec.Add("core/solver_rebuilds", 1)
	cs.prob = cs.buildProblem(tau, cuts)
	solver, err := qp.NewSolver(cs.prob, cutQPSettings())
	if err != nil {
		return err
	}
	var y []float64
	if len(cs.y) > 0 {
		y = make([]float64, cs.prob.A.M)
		copy(y, cs.y) // append-only rows: new cut rows start at zero
	}
	if err := solver.WarmStart(cs.x, y); err != nil {
		return err
	}
	cs.solver = solver
	cs.builtCuts = len(cuts)
	cs.builtTau = tau
	return nil
}

// retarget points the live solver at clock period tau and warm-starts
// it: when τ moved since the last build every path cut's upper bound
// becomes τ − nom (no CSR rebuild, no re-equilibration; smoothness rows
// keep [−δ, δ]), then the primal is re-anchored at the clamped iterate.
// Duals persist inside the solver.
func (cs *cutSolver) retarget(tau float64, cuts []cut) error {
	if tau != cs.builtTau {
		base := len(cs.prob.U) - cs.builtCuts
		for i, c := range cuts {
			if !c.smooth {
				cs.prob.U[base+i] = tau - c.nom
			}
		}
		if err := cs.solver.UpdateBounds(cs.prob.L, cs.prob.U); err != nil {
			return err
		}
		cs.builtTau = tau
	}
	return cs.solver.WarmStart(cs.x, nil)
}

// saveDuals records the duals of a converged solve for the next round's
// warm start.
func (cs *cutSolver) saveDuals(y []float64) {
	cs.y = append(cs.y[:0], y...)
}

// recordTangent captures the (τ, obj, dObj/dτ) tangent of a converged
// round solved against the pooled rows cuts.  Pooled rows sit after the
// compiled fixed rows, and a path cut's upper bound is τ − nom, so
// the value-function derivative is the negated dual sum over exactly
// the path-cut rows, in ascending row order (duals of one-sided upper
// bounds are nonnegative, hence the slope is ≤ 0, matching a
// non-increasing minLeak).  Smoothness rows do not move with τ.
func (cs *cutSolver) recordTangent(tau, obj float64, y []float64, cuts []cut) {
	slope := 0.0
	base := cs.comp.fixedA.M
	for i, c := range cuts {
		if !c.smooth {
			slope -= y[base+i]
		}
	}
	cs.tangentTau, cs.tangentObj = tau, obj
	cs.tangentSlope, cs.tangentOK = slope, true
}

// newCutSolverCompiled wires a run view onto a shared artifact.  The
// objective diagonal is copied (the one compiled slice tests may
// perturb); everything else is borrowed read-only.
func newCutSolverCompiled(c *Compiled, opt Options) *cutSolver {
	cs := &cutSolver{
		comp: c, opt: opt,
		nG: c.NG, nVar: c.NVar, clampN: c.NVar,
		pd:        append([]float64(nil), c.cutPD...),
		q:         c.doseQ,
		pool:      newCutPool(),
		maxRounds: cutRounds,
	}
	cs.x = make([]float64, cs.nVar)
	return cs
}

// deltaFn returns the per-gate linear delay delta under actuator
// vector x, read through the compiled concatenated sensitivity rows
// (dose layer entries, then the bias-domain entry).  For dose-only
// artifacts the stored values are the same A·Ds (and B·Ds) products the
// historical closure multiplied inline, in the same order, so the sum
// is bit-identical.
func (cs *cutSolver) deltaFn(x []float64) func(id int) float64 {
	c := cs.comp
	return func(id int) float64 {
		s, e := c.sensPtr[id], c.sensPtr[id+1]
		if s == e {
			return 0
		}
		v := c.sensVal[s] * x[c.sensCol[s]]
		for k := s + 1; k < e; k++ {
			v += c.sensVal[k] * x[c.sensCol[k]]
		}
		return v
	}
}

// makeCut converts a path (from the linear-model enumeration at the
// iterate x) into a constraint row over all actuator variables.  The
// row's cols and vals live in the solver's scratch and stay valid until
// the next makeCut; cutPool.add copies the rows it keeps.
func (cs *cutSolver) makeCut(p *sta.Path, x []float64) cut {
	c := cs.comp
	if len(cs.acc) < cs.nVar {
		cs.acc = make([]float64, cs.nVar)
		cs.mark = make([]bool, cs.nVar)
	}
	touched := cs.touched[:0]
	for i, id := range p.Nodes {
		s, e := c.sensPtr[id], c.sensPtr[id+1]
		if s == e {
			continue
		}
		kind := c.Golden.In.Circ.Gates[id].Kind
		// Actuators affect the cell delay of combinational nodes and the
		// clock-to-q of the launching register (first node); the
		// capturing endpoint contributes no actuator-dependent delay.
		isLaunch := i == 0 && kind == netlist.Seq
		if kind == netlist.Comb || isLaunch {
			for k := s; k < e; k++ {
				col := c.sensCol[k]
				if !cs.mark[col] {
					cs.mark[col] = true
					touched = append(touched, col)
				}
				cs.acc[col] += c.sensVal[k]
			}
		}
	}
	// Emit columns sorted: the dedup key needs a canonical row, and
	// summing the dot product below in column order keeps cut.nom (hence
	// the whole solve trajectory) independent of the path's node order.
	sort.Ints(touched)
	cols, vals := cs.rowCols[:0], cs.rowVals[:0]
	lin := 0.0
	for _, col := range touched {
		v := cs.acc[col]
		cols = append(cols, col)
		vals = append(vals, v)
		lin += v * x[col]
		cs.acc[col], cs.mark[col] = 0, false
	}
	cs.touched, cs.rowCols, cs.rowVals = touched, cols, vals
	return cut{cols: cols, vals: vals, nom: p.Delay - lin}
}

// Dedup key tags: each number of a cut key opens with one of the first
// three.  A smoothness row's key is keySmooth and the uvarint index of
// its pair in separateSmooth's walk; no path-cut key starts with that
// byte.
const (
	keyPos    = 0 // sign bit clear; uvarint round-half-even(|v|·10ᵖ) follows
	keyNeg    = 1 // sign bit set (−0 and tiny negatives print as "-0.00")
	keyText   = 2 // non-finite or too large; strconv text and keyTextEnd follow
	keySmooth = 3 // a smoothness row; its uvarint pair index follows

	keyTextEnd = ';' // closes a keyText token; never part of a formatted float
)

// keyScale holds 10ᵖ for the two precisions a cut key uses.
var keyScale = [...]float64{2: 1e2, 4: 1e4}

// appendCutKey appends the pool's dedup key of c to buf.  Two cuts are
// duplicates when their nominal delays print alike at 2 decimals (0.01
// ps) and, column by column, their coefficients print alike at 4.  Each
// number is encoded by appendFixed, whose token is equal for two values
// exactly when their %.pf texts are; the tokens and the uvarint columns
// are self-delimiting, so keys are equal exactly when the texts
// nom|col:val;… would be.  Columns are emitted sorted by makeCut, so the
// key is canonical as-is.
func appendCutKey(buf []byte, c cut) []byte {
	buf = appendFixed(buf, c.nom, 2)
	for i, col := range c.cols {
		buf = binary.AppendUvarint(buf, uint64(col))
		buf = appendFixed(buf, c.vals[i], 4)
	}
	return buf
}

// appendFixed appends a token for v at p decimal places.  strconv's %.pf
// text is the sign bit followed by the digits of R =
// round-half-even(|v|·10ᵖ), evaluated on the exact binary value, so
// (sign, R) determines the text and vice versa.  R is computed exactly.
// f = ⌊fl(|v|·10ᵖ)⌋ is the true floor, except when the product rounded
// up onto an integer; then the true value lies less than 1/16 below f
// and rounds to f either way.  math.FMA gives the exact sign of
// |v|·10ᵖ − (f + ½), which picks f or f + 1, ties going to the even one.
// NaN, ±Inf and R ≥ 2⁵⁰ fall back to the text itself under its own tag;
// fast-path tokens all have R < 2⁵⁰, so no text has tokens under both
// tags.
func appendFixed(buf []byte, v float64, p int) []byte {
	scale := keyScale[p]
	a := math.Abs(v)
	if y := a * scale; y < 1<<50 { // false for NaN and ±Inf
		f := math.Floor(y)
		r := uint64(f)
		if h := math.FMA(a, scale, -(f + 0.5)); h > 0 || h == 0 && r&1 == 1 {
			r++
		}
		if r < 1<<50 {
			tag := byte(keyPos)
			if math.Signbit(v) {
				tag = keyNeg
			}
			return binary.AppendUvarint(append(buf, tag), r)
		}
	}
	buf = strconv.AppendFloat(append(buf, keyText), v, 'f', p, 64)
	return append(buf, keyTextEnd)
}

// addCut pools the cut of path p at the iterate cs.x and reports whether
// it was new.
func (cs *cutSolver) addCut(p *sta.Path) bool {
	ct := cs.makeCut(p, cs.x)
	cs.key = appendCutKey(cs.key[:0], ct)
	return cs.pool.add(cs.key, ct)
}

// rowBounds returns the bounds of pooled row c at the clock period tau:
// (−∞, τ − nom] for a path cut, the compiled [−δ, δ] for a smoothness
// row.
func (cs *cutSolver) rowBounds(c cut, tau float64) (lo, hi float64) {
	if c.smooth {
		return -cs.comp.Opts.Delta, cs.comp.Opts.Delta
	}
	return math.Inf(-1), tau - c.nom
}

// separateSmooth is the smoothness half of a cut round's separation: it
// walks the grid's stencil over each dose block at the clamped iterate
// cs.x, pools in walk order the row x_a − x_b ∈ [−δ, δ] of every pair
// whose difference lies more than smoothSepTol outside [−δ, δ], and
// returns how many pairs it found violated, pooled before or not.  An
// artifact whose fixed rows already hold the smoothness rows
// (smoothFixed) has none to separate.
func (cs *cutSolver) separateSmooth() int {
	c := cs.comp
	violated, added := 0, 0
	if !c.smoothFixed {
		delta := c.Opts.Delta
		pair := 0
		for _, b := range c.doseBlocks() {
			x := cs.x[b.Off : b.Off+b.N]
			c.Grid.EachPair(func(p, q int) {
				if v := x[p] - x[q]; v > delta+smoothSepTol || v < -delta-smoothSepTol {
					violated++
					cs.key = binary.AppendUvarint(append(cs.key[:0], keySmooth), uint64(pair))
					cs.rowCols = append(cs.rowCols[:0], b.Off+p, b.Off+q)
					cs.rowVals = append(cs.rowVals[:0], 1, -1)
					if cs.pool.add(cs.key, cut{cols: cs.rowCols, vals: cs.rowVals, smooth: true}) {
						added++
					}
				}
				pair++
			})
		}
	}
	cs.rec.Add("core/smooth_rows_added", int64(added))
	return violated
}

// generateCuts is one cut round's separation step at the clock period
// tau: it enumerates the longest paths of the linear delay model at the
// iterate cs.x (at most cutsPerRound pin-level paths, in non-increasing
// delay order), pools a cut for each path with delay > tau + tolPs/2,
// where tolPs is cutTolRel × the golden MCT, and returns how many were
// new.  delta is cs.deltaFn(cs.x).  The enumeration stops at that cutoff
// too, so it never builds the sub-cutoff paths the loop would discard.
// A gate path arrives once however many pin-level copies it stands for
// (sta.Path.Mult); the copies would make the same cut, which the pool
// would drop.
func (cs *cutSolver) generateCuts(ctx context.Context, delta func(id int) float64, tau float64) int {
	_, sp := obs.Start(ctx, "core/cutgen")
	defer sp.End()
	c := cs.comp
	tolPs := cutTolRel * c.Golden.MCT
	cutoff := tau + tolPs/2
	gates := c.Golden.In.Circ.Gates
	arcFn := func(from, to int) float64 {
		a := c.Golden.ArcDelay(from, to)
		if gates[to].Kind == netlist.Comb {
			a += delta(to)
		}
		return a
	}
	startFn := func(id int) float64 {
		s := c.Golden.StartWeight(id)
		if gates[id].Kind == netlist.Seq {
			s += delta(id)
		}
		return s
	}
	paths := sta.TopPathsDAG(c.Golden.In.Circ, c.order, arcFn, startFn, c.Golden.EndWeight,
		cutsPerRound, 0, cutoff)
	added := 0
	for _, p := range paths {
		if p.Delay <= cutoff {
			break // paths arrive in non-increasing delay order
		}
		if cs.addCut(p) {
			added++
		}
	}
	cs.rec.Add("core/cuts_added", int64(added))
	return added
}

// buildProblem assembles the current QP: the compiled fixed rows
// followed by the pooled rows.  ConcatRows copies both, so the problem
// owns its A, L and U and ensure can append to them in place; the
// objective diagonal is compiled from cs.pd because the run view owns
// that slice.
func (cs *cutSolver) buildProblem(tau float64, cuts []cut) *qp.Problem {
	c := cs.comp
	ptr := qp.NewTriplet(cs.nVar, cs.nVar)
	for j, v := range cs.pd {
		if v != 0 {
			ptr.Add(j, j, v)
		}
	}
	n0 := c.fixedA.M
	l := make([]float64, n0, n0+len(cuts))
	u := make([]float64, n0, n0+len(cuts))
	copy(l, c.fixedL)
	copy(u, c.fixedU)
	cols := make([][]int, len(cuts))
	vals := make([][]float64, len(cuts))
	for i, ct := range cuts {
		cols[i], vals[i] = ct.cols, ct.vals
		lo, hi := cs.rowBounds(ct, tau)
		l = append(l, lo)
		u = append(u, hi)
	}
	a := qp.ConcatRows(c.fixedA, qp.CSRFromRows(cs.nVar, cols, vals))
	return &qp.Problem{P: ptr.Compile(), Q: cs.q, A: a, L: l, U: u}
}

// solveTau minimizes Δleakage subject to MCT ≤ tau by cut generation,
// abandoning the probe as soon as the objective provably exceeds xiNW
// (cuts only shrink the feasible set, so the round objectives are
// non-decreasing — once above the budget the probe can never recover).
// Pass +Inf for a plain QP solve.  It returns the model objective in nW;
// feasible is false when the probe is infeasible or over budget.  A
// canceled context aborts between cut rounds with an error wrapping
// context.Canceled.
func (cs *cutSolver) solveTau(ctx context.Context, tau, xiNW float64) (obj float64, feasible bool, err error) {
	objs, feas, err := solveTauGroup(ctx, []*cutSolver{cs}, tau, xiNW)
	if err != nil {
		return 0, false, err
	}
	return objs[0], feas[0], nil
}

// objective evaluates the model Δleakage of dose vector x in nW.
func (cs *cutSolver) objective(x []float64) float64 {
	obj := 0.0
	for j := 0; j < cs.nVar; j++ {
		obj += 0.5*cs.pd[j]*x[j]*x[j] + cs.q[j]*x[j]
	}
	return obj
}

// clampVars clamps the iterate's actuator variables onto their boxes
// after a solve (numerical slop only).  Dose blocks clamp to the RUN
// box [opt.DoseLo, opt.DoseHi] — the wafer consensus shifts it per
// field — while the bias block clamps to its compile-time box.
// Variables at clampN and beyond (auxiliary wafer consensus columns)
// are never clamped.
func (cs *cutSolver) clampVars() {
	for _, b := range cs.comp.Blocks {
		lo, hi := b.Lo, b.Hi
		if b.Name != "bias" {
			lo, hi = cs.opt.DoseLo, cs.opt.DoseHi
		}
		for k := 0; k < b.N; k++ {
			j := b.Off + k
			if j >= cs.clampN {
				return
			}
			cs.x[j] = clamp(cs.x[j], lo, hi)
		}
	}
}

// biasOf extracts the bias-block variables from the iterate (nil when
// the bias actuator is off).
func (cs *cutSolver) biasOf() []float64 {
	c := cs.comp
	if c.nBias == 0 {
		return nil
	}
	return append([]float64(nil), cs.x[c.biasOff:c.biasOff+c.nBias]...)
}

// layers converts the iterate into dose maps, legalized onto the exact
// equipment-feasible set (range + smoothness) so downstream consumers
// never see solver slop.  Without the dose actuator it returns a zero
// poly map (already legal), keeping downstream map consumers total.
func (cs *cutSolver) layers() dosemap.Layers {
	opt := cs.opt
	if !cs.comp.hasDose() {
		return dosemap.Layers{Poly: dosemap.NewMap(cs.comp.Grid)}
	}
	legalize := func(m *dosemap.Map) {
		m.Legalize(opt.DoseLo, opt.DoseHi, opt.Delta, 50)
	}
	poly := dosemap.NewMap(cs.comp.Grid)
	copy(poly.D, cs.x[:cs.nG])
	legalize(poly)
	out := dosemap.Layers{Poly: poly}
	if opt.BothLayers {
		act := dosemap.NewMap(cs.comp.Grid)
		copy(act.D, cs.x[cs.nG:2*cs.nG])
		legalize(act)
		out.Active = act
	}
	return out
}

// result packages the current iterate as a Result: legalized maps,
// model prediction and golden signoff.
func (cs *cutSolver) result(ctx context.Context, probes int) (*Result, error) {
	c := cs.comp
	asn := Assignment{Layers: cs.layers(), BiasV: cs.biasOf()}
	predMCT, predLeak := c.predict(asn)
	nominal := Eval{MCTps: c.Golden.MCT, LeakUW: c.nomLeakUW}
	gold, err := signoff(ctx, c, cs.opt, asn)
	if err != nil {
		return nil, err
	}
	nCuts, nSmooth := cs.pool.counts()
	return &Result{
		Layers:          asn.Layers,
		PredMCT:         predMCT,
		PredDeltaLeakNW: predLeak,
		Nominal:         nominal,
		Golden:          gold,
		Probes:          probes,
		Rows:            nCuts + nSmooth,
		Cols:            cs.nVar,
		BiasV:           asn.BiasV,
		BiasDomains:     c.nBias,
		Status:          fmt.Sprintf("cuts=%d smooth=%d rounds=%d solves=%d", nCuts, nSmooth, cs.rounds, cs.solves),
	}, nil
}
