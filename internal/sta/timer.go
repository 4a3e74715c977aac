package sta

import (
	"context"
	"math"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Timer is a reusable incremental timing engine.  It is constructed once
// per design — freezing the topological order, level buckets and
// sequential/dead-end node sets, and allocating every scratch buffer —
// and then answers repeated timing queries by re-propagating only the
// cones affected by what actually changed:
//
//   - Update(pert) diffs the new perturbation against the previous one
//     AND the current placement against the positions seen last (so
//     legalization moves are picked up automatically), seeds the dirty
//     set with the changed gates, and re-propagates forward through the
//     fanout cones (with bitwise early cut-off when a gate's
//     arrival/slew is unchanged) and backward through the affected
//     required-time cone only.
//
// The contract is strict bitwise equivalence: after every update the
// Timer's Result is identical under math.Float64bits to a cold full
// Analyze of the same design state.  This holds because every value the
// Timer writes is produced by the very same expressions Analyze uses
// (forwardGate, gatherRequired, the launch block, netLoad and the MCT
// scan), evaluated in an order where every operand already carries its
// cold-analysis bits.
//
// A Timer is not safe for concurrent use.  The Result returned by Update
// and Result aliases the Timer's internal buffers and is only valid
// until the next update (or Restore).
type Timer struct {
	in  Input
	cfg Config
	res *Result

	// pert is the dense current perturbation, owned by the Timer (the
	// caller's Perturb slices are copied, so they may be reused).
	pert *Perturb

	// Frozen topology.
	buckets [][]int // gates per level, in topological order
	maxLv   int
	seqIDs  []int // flip-flops in topological order (backward pass tail)
	// deadIDs are the structurally unloaded nodes whose raw backward
	// value is +Inf; Analyze defaults them to MCT in a final pass.  The
	// set is placement- and dose-independent, so it is frozen here and
	// the stored MCT values are flipped back to +Inf around each
	// incremental backward pass (see incrementalBackward).
	deadIDs []int

	// prevX/prevY are the placement coordinates the current timing state
	// corresponds to; Update diffs against them to find moved cells.
	prevX, prevY []float64

	// Dirty stamps (generation-tagged so no per-update clearing).
	gen               uint32
	fdirty            []uint32 // forward: re-run forwardGate
	bdirty            []uint32 // backward: re-run gatherRequired
	loadMark, relMark []uint32
	loadList, relList []int // drivers needing netLoad; FFs needing relaunch

	// evals counts gate evaluations (load recomputes, launch updates,
	// forwardGate and gatherRequired calls) for perf accounting.
	evals uint64

	// rec is the telemetry recorder captured at construction (nil when
	// disabled); updates emit aggregate counters once per finish, never
	// inside the per-gate loops.
	rec *obs.Recorder

	// paths is the scratch of TopPaths, made on first use and kept, with
	// whatever capacity its searches grew, for the Timer's lifetime.
	paths *pathScratch
}

// NewTimer builds a Timer for the design, running one full analysis to
// seed the timing state at the given perturbation (nil means nominal).
func NewTimer(in Input, cfg Config, pert *Perturb) (*Timer, error) {
	return NewTimerCtx(context.Background(), in, cfg, pert)
}

// NewTimerCtx is NewTimer with cancellation of the initial full
// analysis.  Subsequent updates are cheap and not cancellable.
func NewTimerCtx(ctx context.Context, in Input, cfg Config, pert *Perturb) (*Timer, error) {
	res, err := AnalyzeCtx(ctx, in, cfg, pert)
	if err != nil {
		return nil, err
	}
	n := in.Circ.NumGates()
	levels, err := in.Circ.Levelize()
	if err != nil {
		return nil, err
	}
	t := &Timer{
		in: in, cfg: cfg, res: res, rec: obs.From(ctx),
		prevX:    append([]float64(nil), in.Pl.X...),
		prevY:    append([]float64(nil), in.Pl.Y...),
		fdirty:   make([]uint32, n),
		bdirty:   make([]uint32, n),
		loadMark: make([]uint32, n),
		relMark:  make([]uint32, n),
	}
	t.pert = &Perturb{DL: make([]float64, n), DW: make([]float64, n), DVth: make([]float64, n)}
	for id := 0; id < n; id++ {
		t.pert.DL[id] = pert.dl(id)
		t.pert.DW[id] = pert.dw(id)
		t.pert.DVth[id] = pert.dvth(id)
	}
	res.Pert = t.pert

	for _, lv := range levels {
		if lv > t.maxLv {
			t.maxLv = lv
		}
	}
	t.buckets = make([][]int, t.maxLv+1)
	for _, id := range res.order {
		t.buckets[levels[id]] = append(t.buckets[levels[id]], id)
		if in.Circ.Gates[id].Kind == netlist.Seq {
			t.seqIDs = append(t.seqIDs, id)
		}
	}
	t.findDeadEnds()
	return t, nil
}

// findDeadEnds computes the structural set of nodes whose gathered
// required time is +Inf: non-endpoints all of whose fanout edges lead
// only to other dead ends.  The set depends only on the netlist.
func (t *Timer) findDeadEnds() {
	n := t.in.Circ.NumGates()
	dead := make([]bool, n)
	alive := func(id int) bool {
		g := t.in.Circ.Gates[id]
		if g.Kind == netlist.PO {
			return true
		}
		for _, fo := range g.Fanouts {
			switch t.in.Circ.Gates[fo].Kind {
			case netlist.PO, netlist.Seq:
				return true
			case netlist.Comb:
				if !dead[fo] {
					return true
				}
			}
		}
		return false
	}
	// Mirror the backward-pass order: non-sequential nodes in descending
	// level order (every live fanout of a Comb node sits at a higher
	// level, so its deadness is final when read), flip-flops last.
	for lv := t.maxLv; lv >= 0; lv-- {
		for _, id := range t.buckets[lv] {
			if t.in.Circ.Gates[id].Kind != netlist.Seq {
				dead[id] = !alive(id)
			}
		}
	}
	for _, id := range t.seqIDs {
		dead[id] = !alive(id)
	}
	for id, d := range dead {
		if d {
			t.deadIDs = append(t.deadIDs, id)
		}
	}
}

// Result returns the timing of the current design state.  The pointer
// aliases the Timer's buffers: valid until the next update or Restore.
func (t *Timer) Result() *Result { return t.res }

// TopPaths is Result().TopPaths(k, maxStates) — the same search, the
// same paths bit for bit — run in a scratch the Timer keeps rather than
// one from the shared pool.  A caller that searches the same design
// round after round (dosePl) so allocates the arena and heap once, even
// when they grow past the pool's cap.  The returned paths share no
// memory with the scratch.
func (t *Timer) TopPaths(k, maxStates int) []*Path {
	if t.paths == nil {
		t.paths = new(pathScratch)
	}
	r := t.res
	return t.paths.search(r.In.Circ, r.order, r.ArcDelay, r.StartWeight, r.EndWeight, k, maxStates, NoCutoff)
}

// Evals returns the cumulative gate-evaluation count (loads, launches,
// forward and backward gate visits) across all updates, for comparing
// incremental work against full re-analysis (which costs about 2·N gate
// visits plus N load computations per call).
func (t *Timer) Evals() uint64 { return t.evals }

// FullEvalCost returns the gate-evaluation cost of one cold Analyze in
// the same units as Evals: one load, one forward and one backward visit
// per gate, plus one launch update per flip-flop.
func (t *Timer) FullEvalCost() uint64 {
	return uint64(3*t.in.Circ.NumGates() + len(t.seqIDs))
}

func (t *Timer) markF(id int)    { t.fdirty[id] = t.gen }
func (t *Timer) markB(id int)    { t.bdirty[id] = t.gen }
func (t *Timer) isF(id int) bool { return t.fdirty[id] == t.gen }
func (t *Timer) isB(id int) bool { return t.bdirty[id] == t.gen }

func (t *Timer) markLoad(id int) {
	if t.loadMark[id] != t.gen {
		t.loadMark[id] = t.gen
		t.loadList = append(t.loadList, id)
	}
}

func (t *Timer) markRelaunch(id int) {
	if t.relMark[id] != t.gen {
		t.relMark[id] = t.gen
		t.relList = append(t.relList, id)
	}
}

// Update re-times the design after the perturbation changed to pert
// and/or cells moved (swaps, legalization).  It returns the updated
// Result, bit-identical to a cold Analyze of the same state.
func (t *Timer) Update(pert *Perturb) *Result {
	t.gen++
	t.loadList = t.loadList[:0]
	t.relList = t.relList[:0]
	// Placement diff: a moved cell invalidates the wire delays of every
	// incident arc and the wire caps of every net it belongs to (its own
	// net and each fanin's net).
	for id := range t.prevX {
		x, y := t.in.Pl.X[id], t.in.Pl.Y[id]
		if math.Float64bits(x) != math.Float64bits(t.prevX[id]) ||
			math.Float64bits(y) != math.Float64bits(t.prevY[id]) {
			t.prevX[id], t.prevY[id] = x, y
			t.seedMoved(id)
		}
	}
	// Perturbation diff: a changed gate re-evaluates its own delay (or
	// its launch, for flip-flops) and the required times of its fanins,
	// whose gather walks through this gate's cell delay.
	for id := 0; id < len(t.pert.DL); id++ {
		ndl, ndw, ndv := pert.dl(id), pert.dw(id), pert.dvth(id)
		if math.Float64bits(ndl) == math.Float64bits(t.pert.DL[id]) &&
			math.Float64bits(ndw) == math.Float64bits(t.pert.DW[id]) &&
			math.Float64bits(ndv) == math.Float64bits(t.pert.DVth[id]) {
			continue
		}
		t.pert.DL[id], t.pert.DW[id], t.pert.DVth[id] = ndl, ndw, ndv
		t.seedPertChange(id)
	}
	return t.finish()
}

// seedMoved records the timing consequences of one cell changing
// position: stale wire caps on every net containing it, stale wire
// delays on every incident arc.
func (t *Timer) seedMoved(c int) {
	g := t.in.Circ.Gates[c]
	t.markLoad(c)
	// Arcs fi→c: forward of c and gather of each fi use WireDelay(fi, c).
	t.markF(c)
	for _, fi := range g.Fanins {
		t.markLoad(fi) // c is on fi's net: its HPWL changed
		t.markB(fi)
	}
	// Arcs c→fo: forward of each fo and gather of c use WireDelay(c, fo).
	t.markB(c)
	for _, fo := range g.Fanouts {
		t.markF(fo)
	}
}

// seedPertChange records the consequences of gate id's dose-induced
// geometry delta changing.
func (t *Timer) seedPertChange(id int) {
	g := t.in.Circ.Gates[id]
	switch g.Kind {
	case netlist.Comb:
		t.markF(id)
		// gather of a fanin evaluates this gate's cell delay.
		for _, fi := range g.Fanins {
			t.markB(fi)
		}
	case netlist.Seq:
		t.markRelaunch(id)
	}
}

// finish runs the staged recomputation — loads, launches, forward cone,
// MCT, backward cone — mirroring Analyze's phase order exactly.
func (t *Timer) finish() *Result {
	r, in, cfg := t.res, t.in, t.cfg
	evalsBefore := t.evals
	var fwdVisits, cutoffs int64

	// Loads first (they depend only on placement and fanout pins).  A
	// changed load re-evaluates the gate's own delay, its launch if it
	// is a flip-flop, and the gathers of its fanins (which walk through
	// the gate's delay at its load).
	for _, d := range t.loadList {
		old := math.Float64bits(r.Load[d])
		r.Load[d] = in.netLoad(d, cfg)
		t.evals++
		if math.Float64bits(r.Load[d]) == old {
			continue
		}
		g := in.Circ.Gates[d]
		switch g.Kind {
		case netlist.Comb:
			t.markF(d)
			for _, fi := range g.Fanins {
				t.markB(fi)
			}
		case netlist.Seq:
			t.markRelaunch(d)
		}
	}

	// Sequential launches next: fanouts of a flip-flop may sit at lower
	// levels (edges out of registers cut the timing graph), so launch
	// changes must mark them dirty before the level sweep starts.
	for _, s := range t.relList {
		m := in.Masters[s]
		oldA := math.Float64bits(r.AOut[s])
		oldS := math.Float64bits(r.Slew[s])
		r.AOut[s] = m.DelayV(t.pert.dl(s), t.pert.dw(s), t.pert.dvth(s), cfg.ClockSlew, r.Load[s])
		r.Slew[s] = m.OutSlewV(t.pert.dl(s), t.pert.dw(s), t.pert.dvth(s), cfg.ClockSlew, r.Load[s])
		r.InSlew[s] = cfg.ClockSlew
		t.evals++
		slewChanged := math.Float64bits(r.Slew[s]) != oldS
		if slewChanged || math.Float64bits(r.AOut[s]) != oldA {
			for _, fo := range in.Circ.Gates[s].Fanouts {
				t.markF(fo)
			}
		}
		if slewChanged {
			t.markB(s) // gather of s reads its own output slew
		}
	}

	// Forward cone, level by level, with bitwise early cut-off: a dirty
	// gate whose recomputed arrival AND slew are unchanged stops the
	// wavefront (its fanouts never see a difference).
	for lv := 0; lv <= t.maxLv; lv++ {
		for _, id := range t.buckets[lv] {
			if !t.isF(id) {
				continue
			}
			oldA := math.Float64bits(r.AOut[id])
			oldS := math.Float64bits(r.Slew[id])
			forwardGate(r, in, cfg, t.pert, id)
			t.evals++
			fwdVisits++
			slewChanged := math.Float64bits(r.Slew[id]) != oldS
			if slewChanged || math.Float64bits(r.AOut[id]) != oldA {
				for _, fo := range in.Circ.Gates[id].Fanouts {
					t.markF(fo)
				}
			} else {
				cutoffs++ // bitwise unchanged: wavefront stops here
			}
			if slewChanged {
				t.markB(id) // gather of id reads its own output slew
			}
		}
	}

	// MCT: always the same full endpoint scan Analyze runs, so ties
	// break identically.
	oldMCT := math.Float64bits(r.MCT)
	r.MCT = 0
	r.CritEnd = -1
	for id, a := range r.AEnd {
		if !math.IsNaN(a) && a > r.MCT {
			r.MCT = a
			r.CritEnd = id
		}
	}

	// Backward: every stored required time is anchored to MCT, so a
	// changed MCT invalidates all of them — replay Analyze's full pass.
	// Otherwise only the dirty cone is re-gathered.
	fullB := math.Float64bits(r.MCT) != oldMCT
	if fullB {
		t.fullBackward()
	} else {
		t.incrementalBackward()
	}
	if t.rec != nil {
		t.rec.Add("sta/updates", 1)
		t.rec.Add("sta/update_gate_evals", int64(t.evals-evalsBefore))
		t.rec.Add("sta/dirty_cone_gates", fwdVisits)
		t.rec.Add("sta/early_cutoffs", cutoffs)
		if fullB {
			t.rec.Add("sta/full_backward_passes", 1)
		} else {
			t.rec.Add("sta/incremental_backward_passes", 1)
		}
	}
	return r
}

// fullBackward re-gathers every required time in level order, flip-flops
// last.  The order differs from Analyze's reverse topological walk, but
// each gather sees the same final fanout values and takes an exact min,
// so every bit matches.
func (t *Timer) fullBackward() {
	r, in, cfg := t.res, t.in, t.cfg
	for i := range r.ROut {
		r.ROut[i] = math.Inf(1)
	}
	for lv := t.maxLv; lv >= 0; lv-- {
		for _, id := range t.buckets[lv] {
			if in.Circ.Gates[id].Kind != netlist.Seq {
				gatherRequired(r, in, cfg, t.pert, id)
				t.evals++
			}
		}
	}
	for _, id := range t.seqIDs {
		gatherRequired(r, in, cfg, t.pert, id)
		t.evals++
	}
	for id := range r.ROut {
		if math.IsInf(r.ROut[id], 1) {
			r.ROut[id] = r.MCT
		}
	}
}

// incrementalBackward re-gathers only the dirty required-time cone.
//
// Analyze's backward pass computes raw values where dead ends are +Inf
// and defaults them to MCT afterwards; any gather that reads a dead-end
// fanout must therefore see +Inf, not the stored MCT.  The dead-end set
// is structural, so the stored values are flipped to +Inf for the
// duration of the pass and back to MCT after it — restoring exactly the
// representation a cold analysis would have produced.
func (t *Timer) incrementalBackward() {
	r, in, cfg := t.res, t.in, t.cfg
	for _, id := range t.deadIDs {
		r.ROut[id] = math.Inf(1)
	}
	for lv := t.maxLv; lv >= 0; lv-- {
		for _, id := range t.buckets[lv] {
			if !t.isB(id) {
				continue
			}
			g := in.Circ.Gates[id]
			if g.Kind == netlist.Seq {
				continue // gathered last, below
			}
			old := math.Float64bits(r.ROut[id])
			gatherRequired(r, in, cfg, t.pert, id)
			t.evals++
			// Only combinational required times feed further gathers
			// (fanins read ROut[fo] in the Comb branch only).
			if g.Kind == netlist.Comb && math.Float64bits(r.ROut[id]) != old {
				for _, fi := range g.Fanins {
					t.markB(fi)
				}
			}
		}
	}
	for _, id := range t.seqIDs {
		if t.isB(id) {
			gatherRequired(r, in, cfg, t.pert, id)
			t.evals++
		}
	}
	for _, id := range t.deadIDs {
		r.ROut[id] = r.MCT
	}
}

// TimerState is an opaque snapshot of a Timer's mutable state, used for
// cheap rollback (e.g. dosePl rejecting a swap round).
type TimerState struct {
	aout, aend, rout, slew, inslew, load []float64
	dl, dw, dvth                         []float64
	px, py                               []float64
	mct                                  float64
	critEnd                              int
}

// Snapshot captures the current timing state.  Restoring it later (with
// the placement restored to the same coordinates by the caller) resumes
// incremental updates from this exact point.
func (t *Timer) Snapshot() *TimerState {
	t.rec.Add("sta/snapshots", 1)
	r := t.res
	return &TimerState{
		aout:    append([]float64(nil), r.AOut...),
		aend:    append([]float64(nil), r.AEnd...),
		rout:    append([]float64(nil), r.ROut...),
		slew:    append([]float64(nil), r.Slew...),
		inslew:  append([]float64(nil), r.InSlew...),
		load:    append([]float64(nil), r.Load...),
		dl:      append([]float64(nil), t.pert.DL...),
		dw:      append([]float64(nil), t.pert.DW...),
		dvth:    append([]float64(nil), t.pert.DVth...),
		px:      append([]float64(nil), t.prevX...),
		py:      append([]float64(nil), t.prevY...),
		mct:     r.MCT,
		critEnd: r.CritEnd,
	}
}

// Restore rewinds the Timer to a snapshot taken earlier on the same
// Timer.  The caller is responsible for restoring the placement to the
// coordinates it had at snapshot time (dosePl's rollback does exactly
// that); the Timer re-syncs its position mirror from the snapshot.
func (t *Timer) Restore(s *TimerState) {
	t.rec.Add("sta/restores", 1)
	r := t.res
	copy(r.AOut, s.aout)
	copy(r.AEnd, s.aend)
	copy(r.ROut, s.rout)
	copy(r.Slew, s.slew)
	copy(r.InSlew, s.inslew)
	copy(r.Load, s.load)
	copy(t.pert.DL, s.dl)
	copy(t.pert.DW, s.dw)
	copy(t.pert.DVth, s.dvth)
	copy(t.prevX, s.px)
	copy(t.prevY, s.py)
	r.MCT = s.mct
	r.CritEnd = s.critEnd
}
