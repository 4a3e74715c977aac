package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dosemap"
	"repro/internal/gen"
	"repro/internal/power"
	"repro/internal/sta"
)

// dosePlRecomputeOracle is the dosePl round loop with nothing carried
// between rounds: every round extracts the top-K paths afresh with
// Result.TopPaths (the pooled search) and rebuilds the critical set and
// the Eq. 13 weights as maps, and the cell index from the placement.
// DosePlCtx, which reuses all of them after a rejected round, must
// reproduce it bit for bit.
func dosePlRecomputeOracle(golden *sta.Result, layers dosemap.Layers, opt Options, dopt DosePlOptions) (*DosePlResult, error) {
	in := golden.In
	pl := in.Pl
	circ := in.Circ
	opt = opt.normalized()
	res := &DosePlResult{}
	tm, err := sta.NewTimerCtx(context.Background(), in, sta.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	evalNow := func() (Eval, *sta.Result) {
		dL, dW := layers.PerGate(circ, pl, opt.Snap)
		r := tm.Update(&sta.Perturb{DL: dL, DW: dW})
		return Eval{MCTps: r.MCT, LeakUW: power.Total(in.Masters, dL, dW, nil)}, r
	}
	before, cur := evalNow()
	res.Before = before
	best := before

	fixed := make([]bool, circ.NumGates())
	maxDist := dopt.Gamma2 * pl.GatePitch()
	grid := layers.Poly.Grid
	ranked := rankGridsByDose(layers.Poly)

	for round := 0; round < dopt.Rounds; round++ {
		snapX := append([]float64(nil), pl.X...)
		snapY := append([]float64(nil), pl.Y...)
		snapW := append([]float64(nil), pl.Width...)
		snapT := tm.Snapshot()

		paths := cur.TopPaths(dopt.K, dopt.MaxPathStates)
		if len(paths) == 0 {
			break
		}
		critical := make(map[int]bool)
		weight := make(map[int]float64)
		for _, p := range paths {
			slackNs := p.Slack(cur.MCT) / 1000
			w := math.Exp(-slackNs)
			for _, id := range p.Nodes {
				if in.Masters[id] == nil {
					continue
				}
				critical[id] = true
				weight[id] += w
			}
		}
		cellsOf := make([][]int, grid.Cells())
		for id := range circ.Gates {
			if in.Masters[id] == nil {
				continue
			}
			gi, gj := grid.Index(pl.X[id], pl.Y[id])
			f := grid.Flat(gi, gj)
			cellsOf[f] = append(cellsOf[f], id)
		}

		// trySwap takes the critical set as a per-gate slice.
		critSlice := make([]bool, circ.NumGates())
		for id := range critical {
			critSlice[id] = true
		}

		numSwaps := 0
		swappedThisRound := make(map[int]bool)
		swappedPerPath := make([]int, len(paths))
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
				if trySwap(in, layers, grid, ranked, cellsOf, critSlice, fixed, swappedThisRound,
					cell, maxDist, dopt, opt) {
					numSwaps++
					res.SwapsAccepted++
					swappedPerPath[pi]++
					break
				}
			}
		}
		if numSwaps == 0 {
			break
		}
		if _, err := pl.Legalize(); err != nil {
			return nil, err
		}
		evalAfter, r2 := evalNow()
		accepted := evalAfter.MCTps < best.MCTps
		res.Rounds = append(res.Rounds, RoundLog{Swaps: numSwaps, MCTps: evalAfter.MCTps, Accepted: accepted})
		if accepted {
			best = evalAfter
			cur = r2
		} else {
			copy(pl.X, snapX)
			copy(pl.Y, snapY)
			copy(pl.Width, snapW)
			tm.Restore(snapT)
			res.SwapsAccepted -= numSwaps
			for id := range swappedThisRound {
				fixed[id] = true
			}
		}
	}
	res.After = best
	return res, nil
}

// privateGolden returns golden viewing a deep copy of its placement
// coordinates, so one dosePl run cannot move the cells another reads.
func privateGolden(golden *sta.Result) *sta.Result {
	pl := *golden.In.Pl
	pl.X = slices.Clone(pl.X)
	pl.Y = slices.Clone(pl.Y)
	pl.Width = slices.Clone(pl.Width)
	g := *golden
	g.In.Pl = &pl
	return &g
}

// diffDosePl describes the first difference between two dosePl results
// and the final placements of their goldens, or returns "".
func diffDosePl(got, want *DosePlResult, gotG, wantG *sta.Result) string {
	evalDiff := func(name string, a, b Eval) string {
		if math.Float64bits(a.MCTps) != math.Float64bits(b.MCTps) || math.Float64bits(a.LeakUW) != math.Float64bits(b.LeakUW) {
			return fmt.Sprintf("%s %+v, want %+v", name, a, b)
		}
		return ""
	}
	if d := evalDiff("Before", got.Before, want.Before); d != "" {
		return d
	}
	if d := evalDiff("After", got.After, want.After); d != "" {
		return d
	}
	if got.SwapsTried != want.SwapsTried || got.SwapsAccepted != want.SwapsAccepted {
		return fmt.Sprintf("swaps tried/accepted %d/%d, want %d/%d", got.SwapsTried, got.SwapsAccepted, want.SwapsTried, want.SwapsAccepted)
	}
	if len(got.Rounds) != len(want.Rounds) {
		return fmt.Sprintf("%d rounds, want %d", len(got.Rounds), len(want.Rounds))
	}
	for i, r := range got.Rounds {
		w := want.Rounds[i]
		if r.Swaps != w.Swaps || r.Accepted != w.Accepted || math.Float64bits(r.MCTps) != math.Float64bits(w.MCTps) {
			return fmt.Sprintf("round %d %+v, want %+v", i, r, w)
		}
	}
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"X", gotG.In.Pl.X, wantG.In.Pl.X},
		{"Y", gotG.In.Pl.Y, wantG.In.Pl.Y},
		{"Width", gotG.In.Pl.Width, wantG.In.Pl.Width},
	} {
		for id := range c.got {
			if math.Float64bits(c.got[id]) != math.Float64bits(c.want[id]) {
				return fmt.Sprintf("final Pl.%s[%d] = %v, want %v", c.name, id, c.got[id], c.want[id])
			}
		}
	}
	return ""
}

// TestDosePlMatchesRecomputeOracle: DosePlCtx must give the recompute
// oracle's result bit for bit — Before, After, every round log, the
// swap counts and the final placement — on two designs, at two path
// counts and two per-round swap caps.  Over all cases at least one
// round must be accepted and one rejected, so the rounds after both
// outcomes are covered.
func TestDosePlMatchesRecomputeOracle(t *testing.T) {
	ctx := context.Background()
	var accepted, rejected int
	for _, preset := range []gen.Preset{gen.AES65().Scaled(0.05), gen.AES90().Scaled(0.04)} {
		d, err := gen.GenerateCtx(context.Background(), preset)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := GoldenNominalCtx(context.Background(), d, sta.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		model, err := FitModelCtx(context.Background(), golden, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		dm, err := SolveQCP(ctx, QCPRequest{Golden: golden, Model: model, Opt: opt})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{300, 2000} {
			for _, gamma5 := range []int{1, 3} {
				name := fmt.Sprintf("%s K=%d γ5=%d", preset.Name, k, gamma5)
				dopt := DefaultDosePlOptions()
				dopt.K = k
				dopt.Gamma5 = gamma5
				wantG := privateGolden(golden)
				want, err := dosePlRecomputeOracle(wantG, dm.Layers, opt, dopt)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				gotG := privateGolden(golden)
				got, err := DosePlCtx(ctx, gotG, dm.Layers, opt, dopt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if d := diffDosePl(got, want, gotG, wantG); d != "" {
					t.Errorf("%s: %s", name, d)
				}
				for _, r := range want.Rounds {
					if r.Accepted {
						accepted++
					} else {
						rejected++
					}
				}
				t.Logf("%s: %d rounds, %d swaps accepted of %d tried, MCT %.3f → %.3f ps",
					name, len(want.Rounds), want.SwapsAccepted, want.SwapsTried, want.Before.MCTps, want.After.MCTps)
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Errorf("%d accepted and %d rejected rounds: both kinds must occur", accepted, rejected)
	}
}
