package sta

import (
	"context"
	"math"

	"repro/internal/netlist"
	"repro/internal/obs"
)

// Timer is a reusable incremental timing engine.  It is constructed once
// per design — keeping the cold analysis's topological order and
// allocating every scratch buffer — and then answers repeated timing
// queries by re-propagating only the cones affected by what actually
// changed:
//
//   - Update(pert) diffs the new perturbation against the previous one
//     AND the current placement against the positions seen last (so
//     legalization moves are picked up automatically), seeds the dirty
//     set with the changed gates, and re-propagates forward through the
//     fanout cones, with bitwise early cut-off when a gate's
//     arrival/slew is unchanged.
//
// The contract is strict bitwise equivalence: after every update the
// Timer's Result is identical under math.Float64bits to a cold full
// AnalyzeCtx of the same design state.  This holds because every value
// the Timer writes is produced by the very same expressions AnalyzeCtx
// uses (forwardGate, the launch block, netLoad and the MCT scan),
// evaluated in an order where every operand already carries its
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

	// prevX/prevY are the placement coordinates the current timing state
	// corresponds to; Update diffs against them to find moved cells.
	prevX, prevY []float64

	// Dirty stamps (generation-tagged so no per-update clearing).
	gen               uint32
	fdirty            []uint32 // re-run forwardGate
	loadMark, relMark []uint32
	loadList, relList []int // drivers needing netLoad; FFs needing relaunch

	// evals counts gate evaluations (load recomputes, launch updates and
	// forwardGate calls) for perf accounting.
	evals uint64

	// rec is the telemetry recorder captured at construction (nil when
	// disabled); updates emit aggregate counters once per finish, never
	// inside the per-gate loops.
	rec *obs.Recorder

	// paths is the scratch of TopPaths, made on first use and kept, with
	// whatever capacity its searches grew, for the Timer's lifetime.
	paths *pathScratch
}

// NewTimerCtx builds a Timer for the design, running one full analysis
// to seed the timing state at the given perturbation (nil means
// nominal).  ctx cancels that initial analysis; subsequent updates are
// cheap and not cancellable.
func NewTimerCtx(ctx context.Context, in Input, cfg Config, pert *Perturb) (*Timer, error) {
	res, err := AnalyzeCtx(ctx, in, cfg, pert)
	if err != nil {
		return nil, err
	}
	n := in.Circ.NumGates()
	t := &Timer{
		in: in, cfg: cfg, res: res, rec: obs.From(ctx),
		prevX:    append([]float64(nil), in.Pl.X...),
		prevY:    append([]float64(nil), in.Pl.Y...),
		fdirty:   make([]uint32, n),
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
	return t, nil
}

// Result returns the timing of the current design state.  The pointer
// aliases the Timer's buffers: valid until the next update or Restore.
func (t *Timer) Result() *Result { return t.res }

// TopPaths is Result().TopPaths(k, maxStates) — the same search, the
// same pin-level paths bit for bit — run in a scratch the Timer keeps
// rather than one from the shared pool.  A caller that searches the
// same design round after round (dosePl) so allocates the arena and
// heap once, even when they grow past the pool's cap.  The returned
// paths share no memory with the scratch.
func (t *Timer) TopPaths(k, maxStates int) []*Path {
	if t.paths == nil {
		t.paths = new(pathScratch)
	}
	r := t.res
	return pinPaths(t.paths.search(r.In.Circ, r.order, r.ArcDelay, r.StartWeight, r.EndWeight, k, maxStates, NoCutoff))
}

// Evals returns the cumulative gate-evaluation count (loads, launches
// and forward gate visits) across all updates, for comparing incremental
// work against full re-analysis (one load and one forward visit per
// gate plus one launch per flip-flop, per call).
func (t *Timer) Evals() uint64 { return t.evals }

func (t *Timer) markF(id int)    { t.fdirty[id] = t.gen }
func (t *Timer) isF(id int) bool { return t.fdirty[id] == t.gen }

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
// Result, bit-identical to a cold AnalyzeCtx of the same state.
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
	// its launch, for flip-flops).
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
	// Arcs fi→c: the forward of c uses WireDelay(fi, c).
	t.markF(c)
	for _, fi := range g.Fanins {
		t.markLoad(fi) // c is on fi's net: its HPWL changed
	}
	// Arcs c→fo: the forward of each fo uses WireDelay(c, fo).
	for _, fo := range g.Fanouts {
		t.markF(fo)
	}
}

// seedPertChange records the consequences of gate id's dose-induced
// geometry delta changing.
func (t *Timer) seedPertChange(id int) {
	switch t.in.Circ.Gates[id].Kind {
	case netlist.Comb:
		t.markF(id)
	case netlist.Seq:
		t.markRelaunch(id)
	}
}

// finish runs the staged recomputation — loads, launches, forward cone,
// MCT — mirroring AnalyzeCtx's phase order exactly.
func (t *Timer) finish() *Result {
	r, in, cfg := t.res, t.in, t.cfg
	evalsBefore := t.evals
	var fwdVisits, cutoffs int64

	// Loads first (they depend only on placement and fanout pins).  A
	// changed load re-evaluates the gate's own delay, or its launch if it
	// is a flip-flop.
	for _, d := range t.loadList {
		old := math.Float64bits(r.Load[d])
		r.Load[d] = in.netLoad(d, cfg)
		t.evals++
		if math.Float64bits(r.Load[d]) == old {
			continue
		}
		switch in.Circ.Gates[d].Kind {
		case netlist.Comb:
			t.markF(d)
		case netlist.Seq:
			t.markRelaunch(d)
		}
	}

	// Sequential launches next: fanouts of a flip-flop may precede it in
	// the topological order (edges out of registers cut the timing
	// graph), so launch changes must mark them dirty before the sweep
	// starts.
	for _, s := range t.relList {
		m := in.Masters[s]
		oldA := math.Float64bits(r.AOut[s])
		oldS := math.Float64bits(r.Slew[s])
		r.AOut[s] = m.Delay(t.pert.dl(s), t.pert.dw(s), t.pert.dvth(s), cfg.ClockSlew, r.Load[s])
		r.Slew[s] = m.OutSlew(t.pert.dl(s), t.pert.dw(s), t.pert.dvth(s), cfg.ClockSlew, r.Load[s])
		r.InSlew[s] = cfg.ClockSlew
		t.evals++
		if math.Float64bits(r.Slew[s]) != oldS || math.Float64bits(r.AOut[s]) != oldA {
			for _, fo := range in.Circ.Gates[s].Fanouts {
				t.markF(fo)
			}
		}
	}

	// Forward cone in AnalyzeCtx's topological order, with bitwise early
	// cut-off: a dirty gate whose recomputed arrival AND slew are
	// unchanged stops the wavefront (its fanouts never see a
	// difference).  Every fanin a gate reads either precedes it in the
	// order or is a flip-flop relaunched above, so it is final when the
	// gate is visited, and the dirty set, the values and the cut-offs do
	// not depend on which topological order is walked.
	for _, id := range r.order {
		if !t.isF(id) {
			continue
		}
		oldA := math.Float64bits(r.AOut[id])
		oldS := math.Float64bits(r.Slew[id])
		forwardGate(r, in, cfg, t.pert, id)
		t.evals++
		fwdVisits++
		if math.Float64bits(r.Slew[id]) != oldS || math.Float64bits(r.AOut[id]) != oldA {
			for _, fo := range in.Circ.Gates[id].Fanouts {
				t.markF(fo)
			}
		} else {
			cutoffs++ // bitwise unchanged: wavefront stops here
		}
	}

	// MCT: always the same full endpoint scan AnalyzeCtx runs, so ties
	// break identically.
	r.MCT = 0
	r.CritEnd = -1
	for id, a := range r.AEnd {
		if !math.IsNaN(a) && a > r.MCT {
			r.MCT = a
			r.CritEnd = id
		}
	}
	if t.rec != nil {
		t.rec.Add("sta/updates", 1)
		t.rec.Add("sta/update_gate_evals", int64(t.evals-evalsBefore))
		t.rec.Add("sta/dirty_cone_gates", fwdVisits)
		t.rec.Add("sta/early_cutoffs", cutoffs)
	}
	return r
}

// TimerState is an opaque snapshot of a Timer's mutable state, used for
// cheap rollback (e.g. dosePl rejecting a swap round).
type TimerState struct {
	aout, aend, slew, inslew, load []float64
	dl, dw, dvth                   []float64
	px, py                         []float64
	mct                            float64
	critEnd                        int
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
