package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildChain makes PI → g1 → g2 → ... → gN → PO and returns the circuit.
func buildChain(t *testing.T, n int) *Circuit {
	t.Helper()
	c := New("chain")
	pi := c.AddGate("in", "", PI)
	prev := pi.ID
	for i := 0; i < n; i++ {
		g := c.AddGate("g", "INVX1", Comb)
		if err := c.Connect(prev, g.ID); err != nil {
			t.Fatal(err)
		}
		prev = g.ID
	}
	po := c.AddGate("out", "", PO)
	if err := c.Connect(prev, po.ID); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestChainBasics(t *testing.T) {
	c := buildChain(t, 5)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumCells() != 5 {
		t.Errorf("NumCells = %d, want 5", c.NumCells())
	}
	// Nets: PI net + 5 gate outputs (last drives PO) = 6.
	if c.NumNets() != 6 {
		t.Errorf("NumNets = %d, want 6", c.NumNets())
	}
	depth, err := c.MaxLevel()
	if err != nil {
		t.Fatal(err)
	}
	// Levels: PI=0, g1..g5 = 1..5, PO = 6.
	if depth != 6 {
		t.Errorf("depth = %d, want 6", depth)
	}
}

func TestConnectErrors(t *testing.T) {
	c := New("t")
	pi := c.AddGate("in", "", PI)
	po := c.AddGate("out", "", PO)
	g := c.AddGate("g", "INVX1", Comb)
	if err := c.Connect(99, g.ID); err == nil {
		t.Error("out-of-range connect should fail")
	}
	if err := c.Connect(g.ID, g.ID); err == nil {
		t.Error("self-loop should fail")
	}
	if err := c.Connect(po.ID, g.ID); err == nil {
		t.Error("PO driving should fail")
	}
	if err := c.Connect(g.ID, pi.ID); err == nil {
		t.Error("driving a PI should fail")
	}
}

func TestValidateCatchesBadStructure(t *testing.T) {
	c := New("bad")
	c.AddGate("g", "INVX1", Comb) // no fanins
	if err := c.Validate(); err == nil {
		t.Error("dangling comb gate should fail validation")
	}

	c2 := New("bad2")
	pi := c2.AddGate("in", "", PI)
	g := c2.AddGate("g", "", Comb) // no master
	_ = c2.Connect(pi.ID, g.ID)
	if err := c2.Validate(); err == nil {
		t.Error("masterless comb gate should fail validation")
	}

	c3 := New("bad3")
	p1 := c3.AddGate("in", "", PI)
	p2 := c3.AddGate("in2", "", PI)
	po := c3.AddGate("out", "", PO)
	_ = c3.Connect(p1.ID, po.ID)
	_ = c3.Connect(p2.ID, po.ID)
	if err := c3.Validate(); err == nil {
		t.Error("PO with two fanins should fail validation")
	}
}

func TestCombCycleDetected(t *testing.T) {
	c := New("cyc")
	pi := c.AddGate("in", "", PI)
	a := c.AddGate("a", "NAND2X1", Comb)
	b := c.AddGate("b", "NAND2X1", Comb)
	_ = c.Connect(pi.ID, a.ID)
	_ = c.Connect(a.ID, b.ID)
	_ = c.Connect(b.ID, a.ID) // combinational loop
	if _, err := c.TopoOrder(); err == nil {
		t.Error("combinational cycle must be detected")
	}
}

func TestSequentialLoopIsLegal(t *testing.T) {
	// FF → INV → FF (a classic toggle): legal because the FF cuts the
	// timing loop.
	c := New("seqloop")
	ff := c.AddGate("ff", "DFFX1", Seq)
	inv := c.AddGate("inv", "INVX1", Comb)
	if err := c.Connect(ff.ID, inv.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect(inv.ID, ff.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("sequential loop should validate: %v", err)
	}
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Errorf("order length = %d, want 2", len(order))
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	c := buildChain(t, 10)
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for p, id := range order {
		pos[id] = p
	}
	for _, g := range c.Gates {
		if g.Kind == Seq {
			continue
		}
		for _, fo := range g.Fanouts {
			if pos[g.ID] >= pos[fo] {
				t.Fatalf("topo violation: %d before %d", g.ID, fo)
			}
		}
	}
}

func TestStartEndPoints(t *testing.T) {
	c := New("se")
	pi := c.AddGate("in", "", PI)
	ff := c.AddGate("ff", "DFFX1", Seq)
	g := c.AddGate("g", "INVX1", Comb)
	po := c.AddGate("out", "", PO)
	_ = c.Connect(pi.ID, g.ID)
	_ = c.Connect(g.ID, ff.ID)
	_ = c.Connect(ff.ID, po.ID)
	sp := c.StartPoints()
	if len(sp) != 2 { // PI + FF
		t.Errorf("StartPoints = %v", sp)
	}
	_ = pi
}

func TestStats(t *testing.T) {
	c := New("s")
	pi := c.AddGate("in", "", PI)
	ff := c.AddGate("ff", "DFFX1", Seq)
	g := c.AddGate("g", "INVX1", Comb)
	po := c.AddGate("out", "", PO)
	_ = c.Connect(pi.ID, g.ID)
	_ = c.Connect(g.ID, ff.ID)
	_ = c.Connect(ff.ID, po.ID)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 2 || st.Seq != 1 || st.PIs != 1 || st.POs != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Comb: "comb", Seq: "seq", PI: "pi", PO: "po"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", k, k.String())
		}
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should format")
	}
}

// randomDAG builds a random layered DAG; used for property tests.
func randomDAG(rng *rand.Rand) *Circuit {
	c := New("rand")
	nLayers := 2 + rng.Intn(5)
	var layers [][]int
	// Input layer.
	var ins []int
	for i := 0; i < 1+rng.Intn(4); i++ {
		ins = append(ins, c.AddGate("in", "", PI).ID)
	}
	layers = append(layers, ins)
	for l := 0; l < nLayers; l++ {
		var cur []int
		for i := 0; i < 1+rng.Intn(5); i++ {
			g := c.AddGate("g", "NAND2X1", Comb)
			// Connect to 1-3 gates from any earlier layer.
			nIn := 1 + rng.Intn(3)
			for k := 0; k < nIn; k++ {
				ll := layers[rng.Intn(len(layers))]
				src := ll[rng.Intn(len(ll))]
				_ = c.Connect(src, g.ID)
			}
			cur = append(cur, g.ID)
		}
		layers = append(layers, cur)
	}
	for _, id := range layers[len(layers)-1] {
		po := c.AddGate("out", "", PO)
		_ = c.Connect(id, po.ID)
	}
	return c
}

// Property: every randomly generated layered DAG validates, and its
// topological order places every driver before every load.
func TestPropertyRandomDAGsOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng)
		order, err := c.TopoOrder()
		if err != nil {
			return false
		}
		pos := make(map[int]int)
		for p, id := range order {
			pos[id] = p
		}
		for _, g := range c.Gates {
			for _, fo := range g.Fanouts {
				if pos[g.ID] >= pos[fo] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: levelization is consistent — level(load) > level(driver) for
// every combinational timing edge.
func TestPropertyLevelsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng)
		levels, err := c.Levelize()
		if err != nil {
			return false
		}
		for _, g := range c.Gates {
			if g.Kind == Seq {
				continue
			}
			for _, fo := range g.Fanouts {
				if levels[fo] <= levels[g.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
