package sta

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

// TestTimerAdversarialSameCells hammers one small, fixed set of cells
// with the worst interleaving dosePl can produce: swap → snapshot →
// divergent swap → restore → perturb the very same cells → swap them
// again (including swap-backs that exactly undo a prior move), with a
// repeated restore from a single snapshot.  Every step must stay
// bit-identical to a cold analysis — this is the access pattern where a
// stale dirty set or a generation-stamp bug would surface.
func TestTimerAdversarialSameCells(t *testing.T) {
	in := mesh(t, 11)
	cfg := DefaultConfig()
	n := in.Circ.NumGates()
	tm, err := NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := placedCells(in)
	// The adversarial set: four cells reused by every operation.
	a, b, c, d := cells[3], cells[len(cells)/2], cells[len(cells)/3], cells[len(cells)-4]

	dl := make([]float64, n)
	pert := func() *Perturb { return &Perturb{DL: append([]float64(nil), dl...)} }

	for round := 0; round < 8; round++ {
		name := fmt.Sprintf("round%d", round)

		in.Pl.Swap(a, b)
		checkAgainstCold(t, name+"-swap-ab", in, cfg, pert(), tm.Update(pert()))

		snap := tm.Snapshot()
		snapX := append([]float64(nil), in.Pl.X...)
		snapY := append([]float64(nil), in.Pl.Y...)
		snapPert := pert()

		// Diverge on the same cells, then roll back — twice, from the
		// same snapshot, proving Restore does not consume its argument.
		for rb := 0; rb < 2; rb++ {
			in.Pl.Swap(c, d)
			tm.Update(snapPert)
			in.Pl.Swap(a, d)
			tm.Update(snapPert)
			copy(in.Pl.X, snapX)
			copy(in.Pl.Y, snapY)
			tm.Restore(snap)
			checkAgainstCold(t, fmt.Sprintf("%s-restore%d", name, rb), in, cfg, snapPert, tm.Result())
		}

		// Perturb exactly the cells just swapped and restored.
		for i, id := range []int{a, b, c, d} {
			dl[id] = -8 + 3*float64(i) + float64(round)
		}
		checkAgainstCold(t, name+"-pert-same", in, cfg, pert(), tm.Update(pert()))

		// Swap the same pair back — the placement returns to its exact
		// pre-round coordinates while the perturbation does not.
		in.Pl.Swap(a, b)
		checkAgainstCold(t, name+"-swap-back", in, cfg, pert(), tm.Update(pert()))

		// A self-swap is a legal no-op and must not corrupt state.
		in.Pl.Swap(c, c)
		checkAgainstCold(t, name+"-self-swap", in, cfg, pert(), tm.Update(pert()))
	}
}

// tinyInput builds the degenerate design: one PI, one combinational
// cell, one FF and one PO on a chip the size of a single dose-map grid
// cell, so every dirty cone is the whole design and the wavefront and
// cutoff logic run at their boundary conditions.
func tinyInput(t *testing.T) Input {
	t.Helper()
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("tiny")
	pi := c.AddGate("pi", "", netlist.PI)
	g := c.AddGate("g", "INVX1", netlist.Comb)
	ff := c.AddGate("ff", "DFFX1", netlist.Seq)
	po := c.AddGate("po", "", netlist.PO)
	for _, e := range [][2]int{{pi.ID, g.ID}, {g.ID, ff.ID}, {ff.ID, po.ID}} {
		if err := c.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	ms := make([]*liberty.Master, c.NumGates())
	ms[g.ID] = lib.MustMaster("INVX1")
	ms[ff.ID] = lib.MustMaster("DFFX1")
	pl := place.New(c, 5, 5, 1.4)
	pl.X[pi.ID], pl.Y[pi.ID] = 0, 0
	pl.X[g.ID], pl.Y[g.ID] = 1, 1
	pl.X[ff.ID], pl.Y[ff.ID] = 2, 2
	pl.X[po.ID], pl.Y[po.ID] = 4, 4
	return Input{Circ: c, Masters: ms, Pl: pl, Node: node}
}

// TestTimerDegenerateSingleGrid runs the full incremental repertoire on
// the tiny single-grid design: perturbations of the only two cells,
// swaps between them, snapshot/restore, and extreme dose deltas at the
// equipment limits, each checked bit-identical against cold analysis.
func TestTimerDegenerateSingleGrid(t *testing.T) {
	in := tinyInput(t)
	cfg := DefaultConfig()
	n := in.Circ.NumGates()
	tm, err := NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCold(t, "tiny-initial", in, cfg, nil, tm.Result())

	cells := placedCells(in)
	if len(cells) != 2 {
		t.Fatalf("tiny design has %d placed cells, want 2", len(cells))
	}
	g, ff := cells[0], cells[1]

	dl := make([]float64, n)
	// Equipment-limit deltas: ±5% dose maps to ∓10 nm gate length.
	for step, v := range []float64{-10, 10, 0, -10, -10, 0} {
		dl[g] = v
		dl[ff] = -v
		p := &Perturb{DL: append([]float64(nil), dl...)}
		checkAgainstCold(t, fmt.Sprintf("tiny-pert%d", step), in, cfg, p, tm.Update(p))
	}

	snap := tm.Snapshot()
	snapX := append([]float64(nil), in.Pl.X...)
	snapY := append([]float64(nil), in.Pl.Y...)
	last := &Perturb{DL: append([]float64(nil), dl...)}

	in.Pl.Swap(g, ff)
	checkAgainstCold(t, "tiny-swap", in, cfg, last, tm.Update(last))
	in.Pl.Swap(g, ff)
	checkAgainstCold(t, "tiny-swap-back", in, cfg, last, tm.Update(last))

	copy(in.Pl.X, snapX)
	copy(in.Pl.Y, snapY)
	tm.Restore(snap)
	checkAgainstCold(t, "tiny-restore", in, cfg, last, tm.Result())

	// The MCT of a one-gate design must still be finite and positive.
	if r := tm.Result(); !(r.MCT > 0) || math.IsInf(r.MCT, 0) {
		t.Fatalf("tiny design MCT not finite positive: %v", r.MCT)
	}
}
