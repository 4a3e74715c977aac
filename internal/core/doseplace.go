package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/dosemap"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// DosePlOptions are the γ knobs of the cell-swapping heuristic
// (Appendix, Algorithm 1), with the paper's experimental defaults.
type DosePlOptions struct {
	// K is the number of critical paths extracted per round (10 000).
	K int
	// Rounds is the number of swap-legalize-verify rounds (10).
	Rounds int
	// Gamma1 caps the number of swapped cells per critical path (1).
	Gamma1 int
	// Gamma2 is the swap distance threshold in gate pitches (footnote
	// 10: "chosen proportionally to the gate pitch").
	Gamma2 float64
	// Gamma3 is the allowed fractional HPWL increase of each swapped
	// cell's incident nets (0.20).
	Gamma3 float64
	// Gamma4 is the allowed fractional leakage increase of the swapped
	// pair (0.10).
	Gamma4 float64
	// Gamma5 caps the number of swaps per round (1).
	Gamma5 int
	// MaxPathStates bounds path enumeration work.
	MaxPathStates int
}

// DefaultDosePlOptions returns the paper's experiment configuration.
func DefaultDosePlOptions() DosePlOptions {
	return DosePlOptions{
		K:             10000,
		Rounds:        10,
		Gamma1:        1,
		Gamma2:        12,
		Gamma3:        0.20,
		Gamma4:        0.10,
		Gamma5:        1,
		MaxPathStates: 2_000_000,
	}
}

// RoundLog records one dosePl round.
type RoundLog struct {
	Swaps    int
	MCTps    float64
	Accepted bool
}

// DosePlResult reports the heuristic's outcome.
type DosePlResult struct {
	Before, After Eval
	Rounds        []RoundLog
	SwapsAccepted int
	SwapsTried    int
}

// DosePlCtx runs the dose-map-aware placement optimization: it swaps
// setup-critical cells into higher-dose grid regions (and non-critical
// cells out), filtered by mutual bounding boxes, distance, HPWL and
// leakage-increase checks, with legalization and golden-STA accept /
// rollback per round.  The placement inside golden.In is mutated in
// place when rounds are accepted.  A canceled context aborts between
// swap rounds (leaving the placement in its last consistent
// accepted-or-rolled-back state) with an error wrapping
// context.Canceled.
func DosePlCtx(ctx context.Context, golden *sta.Result, layers dosemap.Layers, opt Options, dopt DosePlOptions) (*DosePlResult, error) {
	in := golden.In
	pl := in.Pl
	circ := in.Circ
	opt = opt.normalized()
	if layers.Poly == nil {
		return nil, fmt.Errorf("core: dosePl needs a poly dose map")
	}
	if err := checkFiniteDose("dosePl", layers); err != nil {
		return nil, err
	}
	res := &DosePlResult{}
	// One incremental timer serves every round: each evalNow re-times
	// only the cones of the cells that moved (swaps + legalization
	// nudges) and the gates whose dose changed with them, bit-identical
	// to the full re-analysis it replaces.
	tm, err := sta.NewTimerCtx(ctx, in, sta.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	evalNow := func() Eval {
		dL, dW := layers.PerGate(circ, pl, opt.Snap)
		r := tm.Update(&sta.Perturb{DL: dL, DW: dW})
		return Eval{MCTps: r.MCT, LeakUW: power.Total(in.Masters, dL, dW, nil)}
	}
	before := evalNow()
	res.Before = before
	best := before

	fixed := make([]bool, circ.NumGates())
	gatePitch := pl.GatePitch()
	maxDist := dopt.Gamma2 * gatePitch

	// The dose map is fixed for the whole run, so the dose-descending
	// candidate order of the grid regions is computed once and shared by
	// every trySwap call (which previously sorted the bounding-box grids
	// per attempt).
	grid := layers.Poly.Grid
	ranked := rankGridsByDose(layers.Poly)

	// The critical paths, the critical set and the Eq. 13 weights, and
	// cellsOf (grid cell → member cells, for candidate lookup) depend on
	// the placement and its timing only.  They are rebuilt on the first
	// round and after an accepted one: a rollback restores the exact
	// placement and timing state they were built from.  (fixed, the one
	// state a rejection changes, is read by the swap loop alone.)
	var (
		paths    []*sta.Path
		critical = make([]bool, circ.NumGates())
		weight   = make([]float64, circ.NumGates())
		cellsOf  [][]int
	)
	plDirty := true

	for round := 0; round < dopt.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: dosePl canceled at round %d: %w", round, err)
		}
		// Snapshot for rollback: placement arrays plus the timer state
		// they correspond to.
		snapX := append([]float64(nil), pl.X...)
		snapY := append([]float64(nil), pl.Y...)
		snapW := append([]float64(nil), pl.Width...)
		snapT := tm.Snapshot()

		if plDirty {
			paths = tm.TopPaths(dopt.K, dopt.MaxPathStates)
			obs.Add(ctx, "core/dosepl_path_searches", 1)
			if len(paths) == 0 {
				break
			}
			// Critical set and weights (Eq. 13): W(cell) = Σ exp(-slack(C)),
			// summed path by path, node by node.
			clear(critical)
			clear(weight)
			mct := tm.Result().MCT
			for _, p := range paths {
				slackNs := p.Slack(mct) / 1000
				w := math.Exp(-slackNs)
				for _, id := range p.Nodes {
					if in.Masters[id] == nil {
						continue
					}
					critical[id] = true
					weight[id] += w
				}
			}
			cellsOf = make([][]int, grid.Cells())
			for id := range circ.Gates {
				if in.Masters[id] == nil {
					continue
				}
				gi, gj := grid.Index(pl.X[id], pl.Y[id])
				f := grid.Flat(gi, gj)
				cellsOf[f] = append(cellsOf[f], id)
			}
			plDirty = false
		}

		numSwaps := 0
		swappedThisRound := make(map[int]bool)
		swappedPerPath := make([]int, len(paths))
		// Paths arrive most-critical first (non-increasing delay).
		for pi, p := range paths {
			if numSwaps >= dopt.Gamma5 {
				break
			}
			if swappedPerPath[pi] >= dopt.Gamma1 {
				continue
			}
			cells := cellsOnPath(in, p)
			sort.SliceStable(cells, func(a, b int) bool {
				return weight[cells[a]] > weight[cells[b]]
			})
			for _, cell := range cells {
				if fixed[cell] || swappedThisRound[cell] {
					continue
				}
				res.SwapsTried++
				if trySwap(in, layers, grid, ranked, cellsOf, critical, fixed, swappedThisRound,
					cell, maxDist, dopt, opt) {
					numSwaps++
					res.SwapsAccepted++ // provisional; may roll back below
					swappedPerPath[pi]++
					break
				}
			}
		}
		if numSwaps == 0 {
			break // nothing swappable remains
		}
		// Legalize + "ECO route" (wire re-estimation happens inside the
		// next golden analysis) + verify.
		if _, err := pl.Legalize(); err != nil {
			return nil, err
		}
		evalAfter := evalNow()
		accepted := evalAfter.MCTps < best.MCTps
		res.Rounds = append(res.Rounds, RoundLog{Swaps: numSwaps, MCTps: evalAfter.MCTps, Accepted: accepted})
		if accepted {
			best = evalAfter
			plDirty = true
			obs.Add(ctx, "core/dosepl_rounds_accepted", 1)
		} else {
			copy(pl.X, snapX)
			copy(pl.Y, snapY)
			copy(pl.Width, snapW)
			tm.Restore(snapT)
			res.SwapsAccepted -= numSwaps
			for id := range swappedThisRound {
				fixed[id] = true // do not retry these cells
			}
			obs.Add(ctx, "core/dosepl_rounds_rejected", 1)
		}
	}
	res.After = best
	if rec := obs.From(ctx); rec != nil {
		rec.Add("core/dosepl_swaps_tried", int64(res.SwapsTried))
		rec.Add("core/dosepl_swaps_accepted", int64(res.SwapsAccepted))
		rec.Add("core/dosepl_swaps_rejected", int64(res.SwapsTried-res.SwapsAccepted))
	}
	return res, nil
}

// cellsOnPath returns the path's swap candidates: placed cells only.
func cellsOnPath(in sta.Input, p *sta.Path) []int {
	var out []int
	for _, id := range p.Nodes {
		if in.Masters[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// rankedGrid is one grid cell of the poly dose map in the shared
// dose-descending candidate order (ties broken by flat index so the
// order is deterministic).
type rankedGrid struct {
	flat, i, j int
	dose       float64
}

// rankGridsByDose precomputes the dose-descending region order shared by
// every trySwap call of a dosePl run: the dose map never changes during
// the swap rounds, so the per-attempt bounding-box sort reduces to a
// membership filter over this list.
func rankGridsByDose(poly *dosemap.Map) []rankedGrid {
	g := poly.Grid
	out := make([]rankedGrid, 0, g.Cells())
	for i := 0; i < g.M; i++ {
		for j := 0; j < g.N; j++ {
			f := g.Flat(i, j)
			out = append(out, rankedGrid{flat: f, i: i, j: j, dose: poly.D[f]})
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].dose > out[b].dose })
	return out
}

// trySwap attempts to find a partner for the critical cell per
// Algorithm 1 lines 11-27; on success the placement is mutated.
func trySwap(in sta.Input, layers dosemap.Layers, grid dosemap.Grid, ranked []rankedGrid,
	cellsOf [][]int, critical []bool, fixed []bool, swapped map[int]bool,
	cell int, maxDist float64, dopt DosePlOptions, opt Options) bool {

	pl := in.Pl
	poly := layers.Poly
	bl := pl.BoundingBox(cell)
	cellDose := poly.DoseAt(pl.X[cell], pl.Y[cell])
	// The cell stays put until a swap succeeds, so its incident HPWL is
	// one loop-invariant value, not one per candidate.
	h1 := pl.IncidentHPWL(cell)

	// Grids intersecting the bounding box, visited in dose-descending
	// order via the precomputed ranking.
	i0, j0 := grid.Index(bl.MinX, bl.MinY)
	i1, j1 := grid.Index(bl.MaxX, bl.MaxY)

	for _, r := range ranked {
		if r.dose <= cellDose {
			break // sorted: no better region follows (line 15)
		}
		if r.i < i0 || r.i > i1 || r.j < j0 || r.j > j1 {
			continue // outside the cell's bounding box
		}
		// Non-critical candidate cells by distance (line 17).
		var cands []int
		for _, c := range cellsOf[r.flat] {
			if c == cell || critical[c] || fixed[c] || swapped[c] {
				continue
			}
			if in.Circ.Gates[c].Kind != netlist.Comb {
				continue // keep registers anchored
			}
			cands = append(cands, c)
		}
		sort.Slice(cands, func(a, b int) bool {
			return pl.Dist(cell, cands[a]) < pl.Dist(cell, cands[b])
		})
		for _, cand := range cands {
			if pl.Dist(cell, cand) > maxDist {
				break // sorted by distance (line 19)
			}
			// Mutual bounding-box membership (line 20).
			bm := pl.BoundingBox(cand)
			if !bm.Contains(pl.X[cell], pl.Y[cell]) || !bl.Contains(pl.X[cand], pl.Y[cand]) {
				continue
			}
			// HPWL filter: estimated incident-net wirelength increase of
			// each swapped cell below γ3.  The leakage "before" value
			// (line 20, ΔLeak < γ4·Leak) is taken at the pre-swap
			// positions so one Swap covers both filters.
			h2 := pl.IncidentHPWL(cand)
			leakBefore := pairLeak(in, layers, cell, cand)
			pl.Swap(cell, cand)
			n1 := pl.IncidentHPWL(cell)
			n2 := pl.IncidentHPWL(cand)
			if n1 <= h1*(1+dopt.Gamma3)+1e-9 && n2 <= h2*(1+dopt.Gamma3)+1e-9 &&
				pairLeak(in, layers, cand, cell) <= leakBefore*(1+dopt.Gamma4) {
				swapped[cell] = true
				swapped[cand] = true
				return true
			}
			pl.Swap(cell, cand) // revert
		}
	}
	return false
}

// pairLeak returns the summed leakage in nW of two cells at their
// current locations' doses.
func pairLeak(in sta.Input, layers dosemap.Layers, a, b int) float64 {
	leakAt := func(id int) float64 {
		m := in.Masters[id]
		if m == nil {
			return 0
		}
		dl := tech.DoseToLength(layers.Poly.DoseAt(in.Pl.X[id], in.Pl.Y[id]))
		dw := 0.0
		if layers.Active != nil {
			dw = tech.DoseToWidth(layers.Active.DoseAt(in.Pl.X[id], in.Pl.Y[id]))
		}
		return m.Leakage(dl, dw, 0)
	}
	return leakAt(a) + leakAt(b)
}
