package sta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/tech"
)

// mesh builds a random layered DAG with cross-links, multi-fanout nets,
// mid-cone flip-flops and dead-end stubs, so incremental updates face
// reconvergence, register cuts and gates that reach no endpoint.
func mesh(t testing.TB, seed int64) Input {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("mesh")
	const width, depth = 24, 8
	invs := []string{"INVX1", "INVX2", "INVX4"}
	masters := map[int]string{}
	add := func(name, master string, kind netlist.Kind) int {
		id := c.AddGate(name, master, kind).ID
		if master != "" {
			masters[id] = master
		}
		return id
	}
	connect := func(from, to int) {
		if err := c.Connect(from, to); err != nil {
			t.Fatal(err)
		}
	}
	var prev []int
	for i := 0; i < width; i++ {
		prev = append(prev, add(fmt.Sprintf("pi%d", i), "", netlist.PI))
	}
	for l := 0; l < depth; l++ {
		var cur []int
		for i := 0; i < width; i++ {
			if l == depth/2 && i%5 == 0 {
				// A register mid-cone: cuts the timing graph, so its
				// fanouts sit at lower levels than the FF itself.
				ff := add(fmt.Sprintf("ff%d_%d", l, i), "DFFX1", netlist.Seq)
				connect(prev[i], ff)
				cur = append(cur, ff)
				continue
			}
			g := add(fmt.Sprintf("g%d_%d", l, i), invs[rng.Intn(len(invs))], netlist.Comb)
			connect(prev[i], g)
			// Cross-links: up to two extra fanins from the previous layer.
			for k := 0; k < rng.Intn(3); k++ {
				fi := prev[rng.Intn(len(prev))]
				if fi != prev[i] {
					connect(fi, g)
				}
			}
			cur = append(cur, g)
		}
		prev = cur
	}
	for i, id := range prev {
		switch i % 3 {
		case 0:
			po := add(fmt.Sprintf("po%d", i), "", netlist.PO)
			connect(id, po)
		case 1:
			ff := add(fmt.Sprintf("ffo%d", i), "DFFX1", netlist.Seq)
			connect(id, ff)
			// case 2: dead end — timed, but on no endpoint's path.
		}
	}
	ms := make([]*liberty.Master, c.NumGates())
	for id, name := range masters {
		ms[id] = lib.MustMaster(name)
	}
	pl := place.New(c, 300, 300, 1.4)
	for i := range pl.X {
		pl.X[i] = math.Round(rng.Float64()*300*10) / 10
		pl.Y[i] = math.Round(rng.Float64()*300*10) / 10
	}
	return Input{Circ: c, Masters: ms, Pl: pl, Node: node}
}

// checkAgainstCold asserts the timer state is bit-identical to a cold
// full analysis of the current design state.
func checkAgainstCold(t *testing.T, step string, in Input, cfg Config, pert *Perturb, got *Result) {
	t.Helper()
	ref, err := AnalyzeCtx(context.Background(), in, cfg, pert)
	if err != nil {
		t.Fatalf("%s: cold analyze: %v", step, err)
	}
	if math.Float64bits(got.MCT) != math.Float64bits(ref.MCT) {
		t.Fatalf("%s: MCT %v != %v", step, got.MCT, ref.MCT)
	}
	if got.CritEnd != ref.CritEnd {
		t.Fatalf("%s: CritEnd %d != %d", step, got.CritEnd, ref.CritEnd)
	}
	sameBits(t, step+" AOut", got.AOut, ref.AOut)
	sameBits(t, step+" AEnd", got.AEnd, ref.AEnd)
	sameBits(t, step+" Slew", got.Slew, ref.Slew)
	sameBits(t, step+" InSlew", got.InSlew, ref.InSlew)
	sameBits(t, step+" Load", got.Load, ref.Load)
}

// placedCells returns the IDs with a master (swappable cells).
func placedCells(in Input) []int {
	var out []int
	for id, m := range in.Masters {
		if m != nil {
			out = append(out, id)
		}
	}
	return out
}

// TestTimerUpdateEquivalence drives a Timer through 120 random steps —
// dose-perturbation changes, cell swaps, legalization-style bulk moves —
// and asserts bit-identity against a cold Analyze after every one.
func TestTimerUpdateEquivalence(t *testing.T) {
	in := mesh(t, 1)
	cfg := DefaultConfig()
	n := in.Circ.NumGates()
	rng := rand.New(rand.NewSource(2))

	tm, err := NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := placedCells(in)
	// Cumulative perturbation state; scratch is handed to Update and
	// mutated afterwards, proving the Timer copies rather than aliases.
	dl := make([]float64, n)
	dw := make([]float64, n)
	scratch := &Perturb{DL: make([]float64, n), DW: make([]float64, n)}
	for step := 0; step < 120; step++ {
		name := fmt.Sprintf("step%d", step)
		switch step % 3 {
		case 0: // sparse dose-perturbation change
			for k := 0; k <= rng.Intn(6); k++ {
				id := cells[rng.Intn(len(cells))]
				dl[id] = -10 + 20*rng.Float64()
				dw[id] = -5 + 10*rng.Float64()
			}
			copy(scratch.DL, dl)
			copy(scratch.DW, dw)
			got := tm.Update(scratch)
			for i := range scratch.DL {
				scratch.DL[i] = math.NaN() // must not leak into the Timer
				scratch.DW[i] = math.NaN()
			}
			checkAgainstCold(t, name+"-pert", in, cfg, &Perturb{DL: dl, DW: dw}, got)
		case 1: // swap a random pair
			a := cells[rng.Intn(len(cells))]
			b := cells[rng.Intn(len(cells))]
			in.Pl.Swap(a, b)
			copy(scratch.DL, dl)
			copy(scratch.DW, dw)
			got := tm.Update(scratch)
			checkAgainstCold(t, name+"-swap", in, cfg, &Perturb{DL: dl, DW: dw}, got)
		case 2: // legalization-style bulk move
			for k := 0; k <= rng.Intn(8); k++ {
				id := cells[rng.Intn(len(cells))]
				in.Pl.X[id] = math.Round(rng.Float64()*300*10) / 10
				in.Pl.Y[id] = math.Round(rng.Float64()*300*10) / 10
			}
			copy(scratch.DL, dl)
			copy(scratch.DW, dw)
			got := tm.Update(scratch)
			checkAgainstCold(t, name+"-move", in, cfg, &Perturb{DL: dl, DW: dw}, got)
		}
	}
}

// TestTimerSwapEquivalence runs 100 consecutive random swaps through
// Update under a fixed nonzero perturbation, so every step is found by
// the placement diff alone.
func TestTimerSwapEquivalence(t *testing.T) {
	in := mesh(t, 3)
	cfg := DefaultConfig()
	n := in.Circ.NumGates()
	dl := make([]float64, n)
	dw := make([]float64, n)
	for i := 0; i < n; i++ {
		dl[i] = -10 + float64(i%21)
		dw[i] = -5 + float64(i%11)
	}
	pert := &Perturb{DL: dl, DW: dw}
	tm, err := NewTimerCtx(context.Background(), in, cfg, pert)
	if err != nil {
		t.Fatal(err)
	}
	cells := placedCells(in)
	rng := rand.New(rand.NewSource(4))
	for step := 0; step < 100; step++ {
		a := cells[rng.Intn(len(cells))]
		b := cells[rng.Intn(len(cells))]
		in.Pl.Swap(a, b)
		got := tm.Update(pert)
		checkAgainstCold(t, fmt.Sprintf("swap%d", step), in, cfg, pert, got)
	}
}

// TestTimerSnapshotRestore asserts rollback semantics: restoring a
// snapshot (with the caller restoring the placement, as dosePl does)
// rewinds the Timer to the exact cold-analysis state, and incremental
// updates continue correctly from the restored point.
func TestTimerSnapshotRestore(t *testing.T) {
	in := mesh(t, 5)
	cfg := DefaultConfig()
	n := in.Circ.NumGates()
	tm, err := NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	cells := placedCells(in)
	rng := rand.New(rand.NewSource(6))

	dl := make([]float64, n)
	for k := 0; k < 10; k++ {
		dl[cells[rng.Intn(len(cells))]] = -5 + 10*rng.Float64()
	}
	pert := &Perturb{DL: dl}
	tm.Update(pert)

	snap := tm.Snapshot()
	snapX := append([]float64(nil), in.Pl.X...)
	snapY := append([]float64(nil), in.Pl.Y...)
	snapPert := &Perturb{DL: append([]float64(nil), dl...)}

	// Diverge: swaps and a different perturbation.
	for k := 0; k < 5; k++ {
		a, b := cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))]
		in.Pl.Swap(a, b)
		tm.Update(pert)
	}
	dl2 := append([]float64(nil), dl...)
	for k := 0; k < 10; k++ {
		dl2[cells[rng.Intn(len(cells))]] = -5 + 10*rng.Float64()
	}
	tm.Update(&Perturb{DL: dl2})

	// Roll back and verify the restored state matches a cold analysis.
	copy(in.Pl.X, snapX)
	copy(in.Pl.Y, snapY)
	tm.Restore(snap)
	checkAgainstCold(t, "restored", in, cfg, snapPert, tm.Result())

	// And the Timer keeps working incrementally after the rollback.
	a, b := cells[0], cells[len(cells)-1]
	in.Pl.Swap(a, b)
	got := tm.Update(snapPert)
	checkAgainstCold(t, "post-restore-swap", in, cfg, snapPert, got)

	// The snapshot covers the threshold shift too: after a rollback past
	// a DVth change, re-applying that change must re-time the design
	// rather than match the Timer's stale copy of it.
	uniform := func(v float64) *Perturb {
		p := &Perturb{DVth: make([]float64, n)}
		for i := range p.DVth {
			p.DVth[i] = v
		}
		return p
	}
	fresh, err := NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh.Update(uniform(0.02))
	snap = fresh.Snapshot()
	fresh.Update(uniform(-0.03))
	fresh.Restore(snap)
	checkAgainstCold(t, "restored-dvth", in, cfg, uniform(0.02), fresh.Result())
	checkAgainstCold(t, "post-restore-dvth", in, cfg, uniform(-0.03), fresh.Update(uniform(-0.03)))
}

// regionPert builds the dense gate-length delta of a uniform dose delta
// applied to one grid-cell-sized region of the chip, zero elsewhere —
// the single-grid dirty pattern of a DMopt dose-map refinement.
func regionPert(in Input, x0, y0, size, dl float64) *Perturb {
	out := &Perturb{DL: make([]float64, in.Circ.NumGates())}
	for id, m := range in.Masters {
		if m == nil {
			continue
		}
		x, y := in.Pl.X[id], in.Pl.Y[id]
		if x >= x0 && x < x0+size && y >= y0 && y < y0+size {
			out.DL[id] = dl
		}
	}
	return out
}

// fullEvalCost is the gate-evaluation cost of one cold Analyze in the
// units of Timer.Evals, and the sta/analyze_gate_evals count: one load
// and one forward visit per gate, plus one launch per flip-flop.
func fullEvalCost(in Input) uint64 {
	n := in.Circ.NumGates()
	seqs := 0
	for _, g := range in.Circ.Gates {
		if g.Kind == netlist.Seq {
			seqs++
		}
	}
	return uint64(2*n + seqs)
}

// TestIncrementalUpdateEvalSavings is the acceptance bound behind
// BenchmarkIncrementalUpdate: a single-grid dose delta must re-evaluate
// at least 5x fewer gates than a full analysis, whose cost is the count
// the Timer's initial analysis reports.
func TestIncrementalUpdateEvalSavings(t *testing.T) {
	in := mesh(t, 7)
	cfg := DefaultConfig()
	rec := obs.New()
	tm, err := NewTimerCtx(obs.With(context.Background(), rec), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := fullEvalCost(in)
	if got := rec.Counter("sta/analyze_gate_evals"); got != int64(full) {
		t.Fatalf("sta/analyze_gate_evals = %d, want %d", got, full)
	}
	const steps = 10
	before := tm.Evals()
	for i := 0; i < steps; i++ {
		delta := 1.0 + 0.1*float64(i)
		tm.Update(regionPert(in, 30, 30, 60, delta))
	}
	avg := float64(tm.Evals()-before) / steps
	if ratio := float64(full) / avg; ratio < 5 {
		t.Fatalf("single-grid update averaged %.0f gate evals vs %d for full analysis (%.1fx < 5x)",
			avg, full, ratio)
	}
}

// BenchmarkIncrementalUpdate times single-grid dose-delta updates and
// reports gate evaluations per update against the full-analysis cost.
func BenchmarkIncrementalUpdate(b *testing.B) {
	in := mesh(b, 7)
	cfg := DefaultConfig()
	tm, err := NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	perts := []*Perturb{
		regionPert(in, 30, 30, 60, 1.5),
		regionPert(in, 30, 30, 60, 2.5),
	}
	b.ResetTimer()
	before := tm.Evals()
	for i := 0; i < b.N; i++ {
		tm.Update(perts[i%2])
	}
	b.StopTimer()
	evals := float64(tm.Evals()-before) / float64(b.N)
	b.ReportMetric(evals, "gate-evals/op")
	b.ReportMetric(float64(fullEvalCost(in))/evals, "x-fewer-than-full")
}
