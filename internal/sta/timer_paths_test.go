package sta_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/sta"
)

// clonePaths deep-copies paths, so a later search cannot change the copy.
func clonePaths(paths []*sta.Path) []*sta.Path {
	out := make([]*sta.Path, len(paths))
	for i, p := range paths {
		out[i] = &sta.Path{Nodes: append([]int(nil), p.Nodes...), Delay: p.Delay}
	}
	return out
}

// TestTimerTopPathsMatchesColdTopPaths drives a Timer on a generated
// design through dose changes, swaps, bulk moves and snapshot/restore
// rollbacks.  After each step tm.TopPaths(k, 0) for k = 1, 64 and 2000
// must equal Result.TopPaths on a cold Analyze of the same state (node
// sequences and delay bits, in order).  The Timer keeps its scratch
// across all of these searches, and at least one of them must grow it
// past the pool's cap, where a pooled scratch would be dropped.  The
// search expands gate-level prefixes, so the design is one whose k =
// 2000 search still pushes about 19,500 of them.  The paths one call
// returns must be unchanged after the next call.
func TestTimerTopPathsMatchesColdTopPaths(t *testing.T) {
	d, err := gen.GenerateCtx(context.Background(), gen.JPEG65().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	in := sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
	cfg := sta.DefaultConfig()
	tm, err := sta.NewTimerCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cells []int
	for id, m := range in.Masters {
		if m != nil {
			cells = append(cells, id)
		}
	}
	rng := rand.New(rand.NewSource(12))
	dl := make([]float64, in.Circ.NumGates())
	pastCap := false
	var prev, prevCopy []*sta.Path

	check := func(step string) {
		t.Helper()
		cold, err := sta.AnalyzeCtx(context.Background(), in, cfg, &sta.Perturb{DL: dl})
		if err != nil {
			t.Fatalf("%s: cold analyze: %v", step, err)
		}
		for _, k := range []int{1, 64, 2000} {
			got := tm.TopPaths(k, 0)
			if d := sta.DiffPaths(prev, prevCopy); d != "" {
				t.Fatalf("%s k=%d: the previous call's paths changed: %s", step, k, d)
			}
			if d := sta.DiffPaths(got, cold.TopPaths(k, 0)); d != "" {
				t.Fatalf("%s k=%d: %s", step, k, d)
			}
			if sta.TimerArenaCap(tm) > sta.MaxPooledStates {
				pastCap = true
			}
			prev, prevCopy = got, clonePaths(got)
		}
	}
	update := func() { tm.Update(&sta.Perturb{DL: dl}) }
	perturb := func() {
		for k := 0; k <= rng.Intn(6); k++ {
			dl[cells[rng.Intn(len(cells))]] = -10 + 20*rng.Float64()
		}
		update()
	}
	swap := func() {
		in.Pl.Swap(cells[rng.Intn(len(cells))], cells[rng.Intn(len(cells))])
		update()
	}
	move := func() {
		for k := 0; k <= rng.Intn(8); k++ {
			id := cells[rng.Intn(len(cells))]
			in.Pl.X[id] = math.Round(rng.Float64()*in.Pl.ChipW*10) / 10
			in.Pl.Y[id] = math.Round(rng.Float64()*in.Pl.ChipH*10) / 10
		}
		update()
	}

	check("initial")
	for round := 0; round < 4; round++ {
		perturb()
		check(fmt.Sprintf("round %d perturb", round))
		swap()
		check(fmt.Sprintf("round %d swap", round))

		// A dosePl-style round: snapshot, diverge, and on even rounds
		// roll back.
		snap := tm.Snapshot()
		snapX := append([]float64(nil), in.Pl.X...)
		snapY := append([]float64(nil), in.Pl.Y...)
		snapDL := append([]float64(nil), dl...)
		move()
		check(fmt.Sprintf("round %d move", round))
		perturb()
		check(fmt.Sprintf("round %d diverged", round))
		if round%2 == 0 {
			copy(in.Pl.X, snapX)
			copy(in.Pl.Y, snapY)
			copy(dl, snapDL)
			tm.Restore(snap)
			check(fmt.Sprintf("round %d restored", round))
		}
	}
	if !pastCap {
		t.Errorf("no search grew the Timer's arena past the pool's cap of %d states", sta.MaxPooledStates)
	}
}
