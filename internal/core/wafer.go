// Wafer solve stage: full-wafer, multi-field dose co-optimization
// (ROADMAP "Full-wafer, multi-field optimization"; the paper's § II
// equipment model and footnote 1).
//
// Every exposure field prints the same design, so all fields share one
// *Compiled artifact; what differs per field is the across-wafer
// linewidth variation (AWLV) fingerprint — a field-local CD bias b_f in
// nm from dosemap.RadialCD.FieldCD.  The whole formulation runs in
// "effective dose" space: with Ds the dose sensitivity (nm/%), a CD
// bias b_f is indistinguishable from a virtual uniform dose
// δ_f = b_f/Ds, so the field's physical state under actuator dose x is
// fully described by y = x + δ_f (ΔL = Ds·y).  Leakage, timing, path
// cuts, smoothness and golden signoff are all functions of y and are
// therefore IDENTICAL across fields; only the box constraint moves:
// y ∈ [DoseLo+δ_f, DoseHi+δ_f].  A per-field problem is the base
// problem with shifted bounds — nothing else recompiles.
//
// Coupling (§ II equipment model): fields in the same scan column share
// the scanner's cross-slit dose profile.  We express the shared profile
// as the zero-mean column-mean deviation e_j = colmean_j(y) − mean(y)
// (the per-field Dosicom offset — the mean — stays free, and δ_f
// cancels out of e, so the consensus variable is bias-free).  The
// coupling "e identical across fields of a scan column" is resolved by
// consensus-ADMM: each field solves its QP against the current
// consensus profile z and scaled dual u (penalty (ρw/2)·‖e − z + u‖²),
// then z is re-averaged and the duals updated.  The penalty enters the
// per-field QP through auxiliary variables (column means s_j, grand
// mean g, deviations e_j) tied to the dose variables by sparse equality
// rows, keeping the objective diagonal — so the existing cutting-plane
// engine, LDLᵀ factor and warm starts all apply unchanged, and the
// linear penalty target moves between outer iterations via
// qp.Solver.UpdateLinear (no refactorization).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/dosemap"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/qp"
	"repro/internal/sta"
	"repro/internal/tech"
)

// WaferOptions parameterizes the wafer layout, the AWLV fingerprint and
// the consensus outer loop.  Zero values select defaults.
type WaferOptions struct {
	// DiameterMM, FieldWmm, FieldHmm, EdgeMM describe the step-and-scan
	// layout (defaults: a 300 mm wafer with 26×33 mm fields and 3 mm
	// edge exclusion — the production geometry).
	DiameterMM, FieldWmm, FieldHmm, EdgeMM float64
	// Fingerprint is the radial CD bias signature in nm.  The zero value
	// is a flat wafer (no bias anywhere).
	Fingerprint dosemap.RadialCD
	// MaxOuter bounds the consensus-ADMM outer iterations (default 8).
	MaxOuter int
}

// The consensus outer loop stops once the slit profiles agree to
// waferConsensusTol dose percent.  The common wafer target τ̄ is the
// worst uncoupled clock period plus a relative guard of waferTauGuard.
// Both are typed so that 1 + waferTauGuard rounds like a float64 sum.
const (
	waferConsensusTol float64 = 1e-3
	waferTauGuard     float64 = 0.005
)

func (w WaferOptions) normalized() WaferOptions {
	if w.DiameterMM <= 0 {
		w.DiameterMM = 300
	}
	if w.FieldWmm <= 0 {
		w.FieldWmm = 26
	}
	if w.FieldHmm <= 0 {
		w.FieldHmm = 33
	}
	if w.EdgeMM < 0 {
		w.EdgeMM = 0
	} else if w.EdgeMM == 0 {
		w.EdgeMM = 3
	}
	if w.MaxOuter <= 0 {
		w.MaxOuter = 8
	}
	return w
}

// WaferRequest describes one full-wafer co-optimization over a
// compiled formulation.  Opt is the per-field configuration (poly-only;
// Snap is forced off so quantization noise does not swamp the
// across-wafer spread comparison).
type WaferRequest struct {
	Compiled *Compiled
	Opt      Options
	Wafer    WaferOptions

	// procOrder optionally permutes the order in which the independent
	// column-group jobs are dispatched; results land in canonical slots
	// regardless, which the determinism tests exploit to shuffle the
	// completion order.
	procOrder []int
}

// WaferField is one exposure field's outcome across the three stages.
type WaferField struct {
	// Col, Row index the field; CX, CY are its center in mm.
	Col, Row int
	CX, CY   float64
	// CDBiasNm is the fingerprint's mean CD bias over the field;
	// BiasDosePct is the equivalent virtual dose δ = bias/Ds.
	CDBiasNm    float64
	BiasDosePct float64
	// Uniform, Uncoupled and Coupled are the golden signoffs of the
	// three stages: uniform nominal dose, an isolated per-field QCP, and
	// the consensus-coupled wafer solve at the common target τ̄.
	Uniform, Uncoupled, Coupled Eval
	// UncoupledPredMCT is the per-field QCP's model clock period; the
	// wafer target τ̄ is the maximum over fields plus a guard.
	UncoupledPredMCT float64
	// Dose is the coupled stage's physical dose map in percent (the
	// solved effective map minus the virtual bias dose).
	Dose *dosemap.Map
}

// WaferResult is the outcome of SolveWafer.
type WaferResult struct {
	// Wafer is the resolved step-and-scan layout.
	Wafer *dosemap.Wafer
	// Fields holds one entry per wafer field, in layout order.
	Fields []WaferField
	// TauPs is the common coupled clock-period target τ̄ in ps.
	TauPs float64
	// Spread of golden MCT across fields per stage, in percent of the
	// per-stage minimum.
	UniformSpreadPct, UncoupledSpreadPct, CoupledSpreadPct float64
	// NomLeakUW is the zero-dose leakage (the shared ξ budget anchor).
	NomLeakUW float64
	// Groups is the number of distinct column-signature consensus
	// groups the wafer collapsed to.
	Groups int
	// OuterIters and FieldSolves count consensus outer iterations and
	// per-field QP solves (dedup-adjusted) across all column groups.
	OuterIters, FieldSolves int
	// Residuals is the per-outer-iteration consensus residual (worst
	// across column groups, dose percent).
	Residuals []float64
	// Profiles maps each wafer scan column to its shared cross-slit
	// consensus profile (zero-mean, dose percent, one entry per grid
	// column).  Columns sharing a bias signature share the same slice.
	Profiles map[int][]float64
	// Runtime is the wall-clock time of the whole wafer solve.
	Runtime time.Duration
}

// privatizeLinear replaces the borrowed read-only linear term with the
// cutSolver's own mutable copy (the consensus loop rewrites the penalty
// entries every outer iteration).
func (cs *cutSolver) privatizeLinear() {
	cs.q = append([]float64(nil), cs.q...)
}

// refreshLinear pushes an in-place mutation of cs.q into the live
// persistent solver.  Before the first build this is a no-op —
// buildProblem hands the same slice to the next solver.
func (cs *cutSolver) refreshLinear() error {
	if cs.solver == nil {
		return nil
	}
	return cs.solver.UpdateLinear(cs.q)
}

// withSmoothRows returns a copy of c whose fixed rows hold, after the
// box rows, every dose smoothness row (Eq. 4/9): per dose block, one
// row x_a − x_b ∈ [−δ, δ] for each pair of the grid's stencil, in the
// order the separation scan walks them.  The copy sets smoothFixed, so
// its cut rounds never separate.  The wafer's consensus fields start
// from it; its uncoupled fields start from the base compile.
func (c *Compiled) withSmoothRows() *Compiled {
	d := *c
	a := c.fixedA
	rowPtr := slices.Clone(a.RowPtr)
	col, val := slices.Clone(a.Col), slices.Clone(a.Val)
	l, u := slices.Clone(c.fixedL), slices.Clone(c.fixedU)
	delta := c.Opts.Delta
	for _, b := range c.doseBlocks() {
		c.Grid.EachPair(func(p, q int) {
			col = append(col, b.Off+p, b.Off+q)
			val = append(val, 1, -1)
			rowPtr = append(rowPtr, len(col))
			l = append(l, -delta)
			u = append(u, delta)
		})
	}
	d.fixedA = &qp.CSR{M: len(rowPtr) - 1, N: a.N, RowPtr: rowPtr, Col: col, Val: val}
	d.fixedL, d.fixedU = l, u
	d.smoothFixed = true
	return &d
}

// deriveField derives a per-field view of the shared artifact in
// effective-dose space: the box rows and options shift by the virtual
// bias dose δ, the QCP lower bound is recomputed for the shifted range,
// and everything else (grid maps, objective, fixed smoothness rows if
// any, golden, model) is borrowed from the base.  SolveWafer's
// uncoupled stage passes the base compile, whose fixed rows are its
// box rows, so each field QCP separates its own smoothness rows like a
// single-field QCP; its consensus stage passes a base built by
// withSmoothRows (DESIGN.md §14).
func deriveField(base *Compiled, opt Options, biasDose float64) (*Compiled, Options) {
	d := *base
	d.Opts.DoseLo += biasDose
	d.Opts.DoseHi += biasDose
	fl := append([]float64(nil), base.fixedL...)
	fu := append([]float64(nil), base.fixedU...)
	for g := 0; g < base.NG; g++ {
		fl[g] += biasDose
		fu[g] += biasDose
	}
	d.fixedL, d.fixedU = fl, fu
	in := base.Golden.In
	model, co := base.Model, d.Opts
	_, d.fastMCT = linearArrivalsOrder(base.Golden, base.order, nil, func(id int) float64 {
		if in.Masters[id] == nil {
			return 0
		}
		return minDelayDeltaFor(model, co, id)
	})
	fopt := opt
	fopt.DoseLo += biasDose
	fopt.DoseHi += biasDose
	fopt.SeedTau = 0
	return &d, fopt
}

// deriveConsensus widens a per-field artifact with the slit-profile
// auxiliary variables: column means s_j, the grand mean g and the
// zero-mean deviations e_j, tied to the dose variables by sparse
// equality rows (M+1, N+1 and 3 entries per row — never a dense row, so
// LDLᵀ fill stays benign).  The consensus penalty is the diagonal ρw on
// the e variables; the moving linear target lives in doseQ's e entries.
// Returns the widened artifact, the shifted options and the index of
// the first e variable.
func deriveConsensus(base *Compiled, opt Options, biasDose, rhoW float64) (*Compiled, Options, int) {
	d, fopt := deriveField(base, opt, biasDose)
	nG, grid := base.NG, base.Grid
	nCols, nRows := grid.N, grid.M
	sBase := nG
	gIdx := nG + nCols
	eBase := nG + nCols + 1
	nVarW := nG + 2*nCols + 1
	d.NVar = nVarW

	pd := make([]float64, nVarW)
	copy(pd, base.cutPD)
	for j := 0; j < nCols; j++ {
		pd[eBase+j] = rhoW
	}
	d.cutPD = pd
	q := make([]float64, nVarW)
	copy(q, base.doseQ)
	d.doseQ = q

	// Same fixed rows over the widened variable space (shared slices —
	// a CSR never stores its column count in the data), then the link
	// rows: s_j − colmean_j(y) = 0, g − mean_j(s_j) = 0, e_j − s_j + g = 0.
	wide := &qp.CSR{M: base.fixedA.M, N: nVarW,
		RowPtr: base.fixedA.RowPtr, Col: base.fixedA.Col, Val: base.fixedA.Val}
	tr := qp.NewTriplet(2*nCols+1, nVarW)
	row := 0
	invM := 1 / float64(nRows)
	for j := 0; j < nCols; j++ {
		tr.Add(row, sBase+j, 1)
		for i := 0; i < nRows; i++ {
			tr.Add(row, grid.Flat(i, j), -invM)
		}
		row++
	}
	tr.Add(row, gIdx, 1)
	invN := 1 / float64(nCols)
	for j := 0; j < nCols; j++ {
		tr.Add(row, sBase+j, -invN)
	}
	row++
	for j := 0; j < nCols; j++ {
		tr.Add(row, eBase+j, 1)
		tr.Add(row, sBase+j, -1)
		tr.Add(row, gIdx, 1)
		row++
	}
	d.fixedA = qp.ConcatRows(wide, tr.Compile())
	zeros := make([]float64, 2*nCols+1)
	d.fixedL = append(d.fixedL, zeros...)
	d.fixedU = append(d.fixedU, zeros...)
	return d, fopt, eBase
}

// slitDeviation computes the zero-mean column-mean profile of a dose
// vector in a fixed summation order (deterministic regardless of where
// the vector came from).
func slitDeviation(x []float64, grid dosemap.Grid, out []float64) {
	total := 0.0
	for j := 0; j < grid.N; j++ {
		s := 0.0
		for i := 0; i < grid.M; i++ {
			s += x[grid.Flat(i, j)]
		}
		out[j] = s / float64(grid.M)
		total += out[j]
	}
	mean := total / float64(grid.N)
	for j := range out {
		out[j] -= mean
	}
}

// waferGroup is one consensus unit: the distinct biases of a scan
// column (with multiplicities), shared by every wafer column with the
// same bias signature.
type waferGroup struct {
	cols    []int // wafer columns sharing this signature
	biases  []float64
	weights []float64
}

// groupOutcome is the coupled solve of one column group.
type groupOutcome struct {
	z         []float64      // shared slit profile
	evals     []Eval         // per distinct bias, group order
	doses     []*dosemap.Map // physical dose maps, group order
	residuals []float64
	iters     int
	solves    int
}

// solveWaferGroup runs the consensus-ADMM loop of one column group at
// the common clock period tau: parallel-safe (everything is local), but
// internally serial over the group members so the averaging order — and
// therefore every float — is fixed.
func solveWaferGroup(ctx context.Context, base *Compiled, opt Options, gr waferGroup, tau, rhoW float64, maxOuter int) (*groupOutcome, error) {
	grid := base.Grid
	nG, nCols := base.NG, grid.N
	out := &groupOutcome{z: make([]float64, nCols)}

	type member struct {
		cs    *cutSolver
		eBase int
		u, e  []float64
		bias  float64
	}
	// One cut pool for the whole group: path cuts are linearizations of
	// a linear timing model, hence valid for every member, and a shared
	// pool is what lets the members' constraint matrices stay bitwise
	// identical round over round — the precondition for collapsing the
	// per-member QP solves into one multi-RHS lockstep batch.
	pool := newCutPool()
	members := make([]*member, len(gr.biases))
	css := make([]*cutSolver, len(gr.biases))
	for i, b := range gr.biases {
		fc, fopt, eBase := deriveConsensus(base, opt, b/tech.DoseSensitivity, rhoW)
		cs := newCutSolverCompiled(fc, fopt)
		cs.clampN = nG
		cs.privatizeLinear()
		cs.pool = pool
		members[i] = &member{cs: cs, eBase: eBase,
			u: make([]float64, nCols), e: make([]float64, nCols), bias: b}
		css[i] = cs
	}
	defer func() {
		for _, cs := range css {
			cs.resetSolver()
		}
	}()

	wSum := 0.0
	for _, w := range gr.weights {
		wSum += w
	}
	zOld := make([]float64, nCols)
	for it := 0; it < maxOuter; it++ {
		for _, m := range members {
			for j := 0; j < nCols; j++ {
				m.cs.q[m.eBase+j] = -rhoW * (out.z[j] - m.u[j])
			}
			if err := m.cs.refreshLinear(); err != nil {
				return nil, err
			}
		}
		_, feas, err := solveTauGroup(ctx, css, tau, math.Inf(1))
		if err != nil {
			return nil, err
		}
		for i, m := range members {
			if !feas[i] {
				return nil, fmt.Errorf("core: wafer field (bias %.2f nm) infeasible at τ̄ = %.1f ps", m.bias, tau)
			}
			slitDeviation(m.cs.x[:nG], grid, m.e)
			out.solves++
		}
		copy(zOld, out.z)
		for j := 0; j < nCols; j++ {
			acc := 0.0
			for i, m := range members {
				acc += gr.weights[i] * (m.e[j] + m.u[j])
			}
			out.z[j] = acc / wSum
		}
		res := 0.0
		for j := 0; j < nCols; j++ {
			if d := math.Abs(out.z[j] - zOld[j]); d > res {
				res = d
			}
			for _, m := range members {
				if d := math.Abs(m.e[j] - out.z[j]); d > res {
					res = d
				}
			}
		}
		for _, m := range members {
			for j := 0; j < nCols; j++ {
				m.u[j] += m.e[j] - out.z[j]
			}
		}
		out.residuals = append(out.residuals, res)
		out.iters++
		if res < waferConsensusTol && it >= 1 {
			break
		}
	}

	// Project each member's columns exactly onto z, so every field of
	// the column exits with the same slit profile, not an ε-close one.
	// m.e is still the deviation of the last solve's iterate.
	for _, m := range members {
		cs := m.cs
		for j := 0; j < nCols; j++ {
			d := out.z[j] - m.e[j]
			for r := 0; r < grid.M; r++ {
				cs.x[grid.Flat(r, j)] += d
			}
		}
		layers := cs.layers()
		ev, err := signoff(ctx, base, cs.opt, Assignment{Layers: layers})
		if err != nil {
			return nil, err
		}
		// Physical actuator dose: the solved effective map minus the
		// virtual bias dose.
		phys := layers.Poly.Clone()
		delta := m.bias / tech.DoseSensitivity
		for k := range phys.D {
			phys.D[k] -= delta
		}
		out.evals = append(out.evals, ev)
		out.doses = append(out.doses, phys)
	}
	return out, nil
}

// mctSpreadPct returns 100·(max−min)/min of the golden MCTs.
func mctSpreadPct(evals []Eval) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range evals {
		lo = math.Min(lo, e.MCTps)
		hi = math.Max(hi, e.MCTps)
	}
	if !(lo > 0) {
		return 0
	}
	return 100 * (hi - lo) / lo
}

// SolveWafer runs the three-stage full-wafer co-optimization:
//
//  1. uniform — nominal dose everywhere; the fingerprint shows through
//     unattenuated (the "before" picture).
//  2. uncoupled — an isolated QCP per field in effective-dose space,
//     the single-field engine on a shifted box; each field races to its
//     own minimum clock period under the shared leakage budget, so
//     faster fields overshoot and the across-wafer spread remains.
//  3. coupled — the consensus-ADMM solve at the common target τ̄ (the
//     worst uncoupled period plus a guard), its fields starting from
//     every smoothness row: every field lands just under τ̄ while fields
//     of a scan column agree on the cross-slit profile, equalizing the
//     wafer.
//
// Each stage runs under its own span (wafer/uniform, wafer/uncoupled,
// wafer/coupled) inside core/wafer.
//
// Fields with bit-equal sub-problems (same bias, same column signature)
// are solved once and fanned out — the result is identical either way,
// and a radial fingerprint collapses ~100 fields to a handful of
// distinct solves.  Results are bit-identical for every worker count.
func SolveWafer(ctx context.Context, req WaferRequest) (*WaferResult, error) {
	c := req.Compiled
	start := time.Now()
	ctx, sp := obs.Start(ctx, "core/wafer")
	defer sp.End()
	opt := req.Opt.normalized()
	opt.Snap = false
	if err := c.check(opt); err != nil {
		return nil, err
	}
	if opt.BothLayers {
		return nil, errors.New("core: wafer solve supports poly-only formulations")
	}
	if c.hasBias() || opt.DoseOff {
		// The consensus couples fields through the shared slit profile of
		// the DOSE variables; body-bias wells are per-die silicon with no
		// wafer-level coupling, so actuator composition stops at the field.
		return nil, errors.New("core: wafer solve supports dose-only formulations")
	}
	wopt := req.Wafer.normalized()
	wafer, err := dosemap.NewWafer(wopt.DiameterMM, wopt.FieldWmm, wopt.FieldHmm, wopt.EdgeMM)
	if err != nil {
		return nil, err
	}
	fieldCD := wopt.Fingerprint.FieldCD(wafer)

	// Canonical field order: sort by (Col, Row) so grouping and dedup
	// never depend on layout enumeration details.
	order := make([]int, len(wafer.Fields))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := wafer.Fields[order[a]], wafer.Fields[order[b]]
		if fa.Col != fb.Col {
			return fa.Col < fb.Col
		}
		return fa.Row < fb.Row
	})

	// Every field's virtual bias dose must leave the nominal state
	// reachable, or the QCP's first probe cannot be feasible.
	for _, f := range order {
		delta := fieldCD[f] / tech.DoseSensitivity
		if opt.DoseLo+delta > 0 || opt.DoseHi+delta < 0 {
			return nil, fmt.Errorf("core: field (%d,%d) CD bias %.2f nm exceeds the correctable dose range",
				wafer.Fields[f].Col, wafer.Fields[f].Row, fieldCD[f])
		}
	}

	// Distinct biases in canonical order (stage A and B dedup unit).
	biasIdx := map[uint64]int{}
	var biases []float64
	fieldBias := make([]int, len(wafer.Fields))
	for _, f := range order {
		key := math.Float64bits(fieldCD[f])
		bi, ok := biasIdx[key]
		if !ok {
			bi = len(biases)
			biasIdx[key] = bi
			biases = append(biases, fieldCD[f])
		}
		fieldBias[f] = bi
	}
	obs.Add(ctx, "wafer/field_dedup", int64(len(wafer.Fields)-len(biases)))

	// The stages below fan out across distinct biases and column groups;
	// the work inside each unit runs on one worker, so the fan-out owns
	// the whole budget.  Either split yields bit-identical results.
	workers := par.Workers(opt.Workers)
	inner := opt
	inner.Workers = 1
	in := c.Golden.In

	// Stage A: uniform nominal dose — golden signoff of each distinct
	// bias applied as a uniform ΔL.
	actx, asp := obs.Start(ctx, "wafer/uniform")
	uniform, err := par.Map(actx, len(biases), workers, func(i int) (Eval, error) {
		dl := make([]float64, in.Circ.NumGates())
		for id, m := range in.Masters {
			if m != nil {
				dl[id] = biases[i]
			}
		}
		ev, _, err := EvalPerturbCtx(actx, in, sta.DefaultConfig(), &sta.Perturb{DL: dl})
		return ev, err
	})
	asp.End()
	if err != nil {
		return nil, err
	}

	// Stage B: uncoupled per-field QCP in effective-dose space.  Derived
	// from the base compile, each field separates its own smoothness
	// rows like a single-field QCP.
	type uncoupledOut struct {
		eval Eval
		pred float64
	}
	bctx, bsp := obs.Start(ctx, "wafer/uncoupled")
	uncoupled, err := par.Map(bctx, len(biases), workers, func(i int) (uncoupledOut, error) {
		fc, fopt := deriveField(c, inner, biases[i]/tech.DoseSensitivity)
		r, err := SolveQCP(bctx, QCPRequest{Compiled: fc, Opt: fopt})
		if err != nil {
			return uncoupledOut{}, fmt.Errorf("core: uncoupled field solve (bias %.2f nm): %w", biases[i], err)
		}
		return uncoupledOut{eval: r.Golden, pred: r.PredMCT}, nil
	})
	bsp.End()
	if err != nil {
		return nil, err
	}
	tau := 0.0
	for _, u := range uncoupled {
		tau = math.Max(tau, u.pred)
	}
	tau *= 1 + waferTauGuard

	// Stage C: consensus-coupled solve per column group.  Wafer columns
	// with the same bias signature are one group.  The consensus penalty
	// ρw is the mean per-cell dose curvature, scaled like one cell of the
	// objective.  A stiffer penalty pins each e to the current z, and z
	// then crawls toward consensus over many rounds (DESIGN.md §14).
	cctx, csp := obs.Start(ctx, "wafer/coupled")
	curv := 0.0
	for g := 0; g < c.NG; g++ {
		curv += c.cutPD[g]
	}
	rhoW := curv / float64(c.NG)
	if rhoW <= 0 {
		rhoW = 1
	}
	var groups []waferGroup
	groupOf := map[string]int{}
	fieldGroup := make([]int, len(wafer.Fields))
	fieldMember := make([]int, len(wafer.Fields))
	colFields := map[int][]int{} // wafer column -> field indices, canonical order
	var colOrder []int
	for _, f := range order {
		col := wafer.Fields[f].Col
		if _, ok := colFields[col]; !ok {
			colOrder = append(colOrder, col)
		}
		colFields[col] = append(colFields[col], f)
	}
	for _, col := range colOrder {
		sig := ""
		for _, f := range colFields[col] {
			sig += fmt.Sprintf("%x;", math.Float64bits(fieldCD[f]))
		}
		gi, ok := groupOf[sig]
		if !ok {
			gi = len(groups)
			groupOf[sig] = gi
			gr := waferGroup{}
			memberOf := map[uint64]int{}
			for _, f := range colFields[col] {
				key := math.Float64bits(fieldCD[f])
				mi, seen := memberOf[key]
				if !seen {
					mi = len(gr.biases)
					memberOf[key] = mi
					gr.biases = append(gr.biases, fieldCD[f])
					gr.weights = append(gr.weights, 0)
				}
				gr.weights[mi]++
			}
			groups = append(groups, gr)
		}
		groups[gi].cols = append(groups[gi].cols, col)
		memberOf := map[uint64]int{}
		for mi, b := range groups[gi].biases {
			memberOf[math.Float64bits(b)] = mi
		}
		for _, f := range colFields[col] {
			fieldGroup[f] = gi
			fieldMember[f] = memberOf[math.Float64bits(fieldCD[f])]
		}
	}
	obs.Add(ctx, "wafer/groups", int64(len(groups)))

	// The consensus fields start from every smoothness row: separating
	// them there doubled the consensus' ADMM iterations on the Table IX
	// wafer (DESIGN.md §5).
	full := c.withSmoothRows()

	// Dispatch the group solves, optionally in a permuted order; the
	// outcomes land in canonical slots so the permutation (like the
	// worker count) cannot leak into the result.
	proc := req.procOrder
	if len(proc) != len(groups) {
		proc = nil
	}
	outcomes := make([]*groupOutcome, len(groups))
	_, err = par.Map(cctx, len(groups), workers, func(i int) (struct{}, error) {
		gi := i
		if proc != nil {
			gi = proc[i]
		}
		o, err := solveWaferGroup(cctx, full, inner, groups[gi], tau, rhoW, wopt.MaxOuter)
		if err != nil {
			return struct{}{}, err
		}
		outcomes[gi] = o
		return struct{}{}, nil
	})
	csp.End()
	if err != nil {
		return nil, err
	}

	res := &WaferResult{
		Wafer:     wafer,
		TauPs:     tau,
		NomLeakUW: c.nomLeakUW,
		Groups:    len(groups),
		Profiles:  make(map[int][]float64, len(colOrder)),
	}
	for gi, o := range outcomes {
		res.OuterIters += o.iters
		res.FieldSolves += o.solves
		for it, r := range o.residuals {
			if it == len(res.Residuals) {
				res.Residuals = append(res.Residuals, r)
			} else if r > res.Residuals[it] {
				res.Residuals[it] = r
			}
		}
		for _, col := range groups[gi].cols {
			res.Profiles[col] = o.z
		}
	}
	obs.Add(ctx, "wafer/outer_iters", int64(res.OuterIters))
	obs.Add(ctx, "wafer/field_solves", int64(res.FieldSolves))
	if len(res.Residuals) > 0 {
		obs.Set(ctx, "wafer/consensus_residual", res.Residuals[len(res.Residuals)-1])
	}

	res.Fields = make([]WaferField, len(wafer.Fields))
	for f, fld := range wafer.Fields {
		bi := fieldBias[f]
		o := outcomes[fieldGroup[f]]
		mi := fieldMember[f]
		res.Fields[f] = WaferField{
			Col: fld.Col, Row: fld.Row, CX: fld.CX, CY: fld.CY,
			CDBiasNm:         fieldCD[f],
			BiasDosePct:      fieldCD[f] / tech.DoseSensitivity,
			Uniform:          uniform[bi],
			Uncoupled:        uncoupled[bi].eval,
			UncoupledPredMCT: uncoupled[bi].pred,
			Coupled:          o.evals[mi],
			Dose:             o.doses[mi].Clone(),
		}
	}
	evalsOf := func(pick func(WaferField) Eval) []Eval {
		out := make([]Eval, len(res.Fields))
		for i, f := range res.Fields {
			out[i] = pick(f)
		}
		return out
	}
	res.UniformSpreadPct = mctSpreadPct(evalsOf(func(f WaferField) Eval { return f.Uniform }))
	res.UncoupledSpreadPct = mctSpreadPct(evalsOf(func(f WaferField) Eval { return f.Uncoupled }))
	res.CoupledSpreadPct = mctSpreadPct(evalsOf(func(f WaferField) Eval { return f.Coupled }))
	res.Runtime = time.Since(start)
	return res, nil
}
