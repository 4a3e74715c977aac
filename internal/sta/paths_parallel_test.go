package sta_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/sta"
	"repro/internal/tech"
)

// ladder analyzes a chain of d two-input NANDs, each with both inputs
// on the previous gate's output: a port launches into the first, and
// the last drives an output port.  Every gate-to-gate edge is doubled,
// so the design has 2^d pin-level paths and one gate path.
func ladder(t *testing.T, d int) *sta.Result {
	t.Helper()
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("ladder")
	prev := c.AddGate("pi", "", netlist.PI).ID
	for i := 0; i < d; i++ {
		g := c.AddGate(fmt.Sprintf("nd%d", i), "NAND2X1", netlist.Comb).ID
		for pin := 0; pin < 2; pin++ {
			if err := c.Connect(prev, g); err != nil {
				t.Fatal(err)
			}
		}
		prev = g
	}
	po := c.AddGate("po", "", netlist.PO).ID
	if err := c.Connect(prev, po); err != nil {
		t.Fatal(err)
	}
	masters := make([]*liberty.Master, c.NumGates())
	for _, g := range c.Gates {
		if g.Master != "" {
			masters[g.ID] = lib.MustMaster(g.Master)
		}
	}
	pl := place.New(c, float64(10*d+20), 20, 1.4)
	for i := range pl.X {
		pl.X[i], pl.Y[i] = float64(10*i), float64(5*(i%2))
	}
	r, err := sta.AnalyzeCtx(context.Background(), sta.Input{Circ: c, Masters: masters, Pl: pl, Node: node}, sta.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTopPathsParallelEdges: on a ladder of depth d the search returns
// its one gate path once, with Mult = min(2^d, k), after popping the d
// + 2 states of that path (the launch port, the d gates and the output
// port), and a state cap counts those gate-level pops.  Result.TopPaths
// expands the path into min(2^d, k) adjacent copies, which at d = 10
// must equal the pin-level container/heap oracle.
func TestTopPathsParallelEdges(t *testing.T) {
	for _, d := range []int{1, 2, 10, 40} {
		r := ladder(t, d)
		for _, k := range []int{1, 3, 64, 10000, math.MaxInt} {
			paths, pops := sta.TopPathsPops(r, k, 0)
			if len(paths) != 1 {
				t.Fatalf("d=%d k=%d: %d gate paths, want 1", d, k, len(paths))
			}
			p := paths[0]
			if want := min(1<<d, k); p.Mult != want {
				t.Errorf("d=%d k=%d: Mult %d, want %d", d, k, p.Mult, want)
			}
			if len(p.Nodes) != d+2 || math.Abs(p.Delay-r.MCT) > 1e-9*r.MCT {
				t.Errorf("d=%d k=%d: %d nodes with delay %v, want %d with the MCT %v", d, k, len(p.Nodes), p.Delay, d+2, r.MCT)
			}
			if pops != d+2 {
				t.Errorf("d=%d k=%d: %d states popped, want %d", d, k, pops, d+2)
			}
		}
		if paths, _ := sta.TopPathsPops(r, 64, d+2); len(paths) != 1 {
			t.Errorf("d=%d: a cap of %d states returned %d paths, want 1", d, d+2, len(paths))
		}
		if paths, _ := sta.TopPathsPops(r, 64, d+1); len(paths) != 0 {
			t.Errorf("d=%d: a cap of %d states returned %d paths, want 0", d, d+1, len(paths))
		}
	}

	r := ladder(t, 10)
	for _, k := range []int{1, 3, 1000, 1024, 5000} {
		got := r.TopPaths(k, 0)
		if want := min(1024, k); len(got) != want {
			t.Fatalf("k=%d: %d pin paths, want %d", k, len(got), want)
		}
		if d := sta.DiffPaths(got, sta.HeapOracleTopPaths(r, k)); d != "" {
			t.Fatalf("k=%d: %s", k, d)
		}
		for i, p := range got {
			if p.Mult != 1 {
				t.Fatalf("k=%d: pin path %d has Mult %d, want 1", k, i, p.Mult)
			}
		}
	}
}
