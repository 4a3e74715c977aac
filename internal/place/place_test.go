package place

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
)

// smallCircuit: pi → a → b → po, plus a second load on a.
func smallCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.New("small")
	pi := c.AddGate("in", "", netlist.PI)
	a := c.AddGate("a", "INVX1", netlist.Comb)
	b := c.AddGate("b", "INVX1", netlist.Comb)
	d := c.AddGate("d", "INVX1", netlist.Comb)
	po := c.AddGate("out", "", netlist.PO)
	for _, e := range [][2]int{{pi.ID, a.ID}, {a.ID, b.ID}, {a.ID, d.ID}, {b.ID, po.ID}} {
		if err := c.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestNetHPWL(t *testing.T) {
	c := smallCircuit(t)
	p := New(c, 100, 100, 2)
	// pi=0 a=1 b=2 d=3 po=4
	p.X = []float64{0, 10, 20, 10, 30}
	p.Y = []float64{0, 0, 10, 20, 10}
	// Net driven by a (id 1): pins at a(10,0), b(20,10), d(10,20):
	// HPWL = (20-10) + (20-0) = 30.
	if got := p.NetHPWL(1); got != 30 {
		t.Errorf("NetHPWL(a) = %v, want 30", got)
	}
	// PO has no fanouts → zero.
	if got := p.NetHPWL(4); got != 0 {
		t.Errorf("NetHPWL(po) = %v, want 0", got)
	}
	total := p.TotalHPWL()
	want := p.NetHPWL(0) + p.NetHPWL(1) + p.NetHPWL(2) + p.NetHPWL(3)
	if total != want {
		t.Errorf("TotalHPWL = %v, want %v", total, want)
	}
}

func TestIncidentHPWL(t *testing.T) {
	c := smallCircuit(t)
	p := New(c, 100, 100, 2)
	p.X = []float64{0, 10, 20, 10, 30}
	p.Y = []float64{0, 0, 10, 20, 10}
	// Gate b (id 2): own net (b→po) + fanin net (a's net).
	want := p.NetHPWL(2) + p.NetHPWL(1)
	if got := p.IncidentHPWL(2); got != want {
		t.Errorf("IncidentHPWL(b) = %v, want %v", got, want)
	}
}

func TestBoundingBox(t *testing.T) {
	c := smallCircuit(t)
	p := New(c, 100, 100, 2)
	p.X = []float64{0, 10, 20, 10, 30}
	p.Y = []float64{0, 0, 10, 20, 10}
	// Box of a (id 1): fanin pi(0,0), fanouts b(20,10), d(10,20), self(10,0).
	b := p.BoundingBox(1)
	if b.MinX != 0 || b.MaxX != 20 || b.MinY != 0 || b.MaxY != 20 {
		t.Errorf("BoundingBox = %+v", b)
	}
	if !b.Contains(10, 10) || b.Contains(30, 30) {
		t.Error("Contains misbehaves")
	}
}

func TestSwapAndDist(t *testing.T) {
	c := smallCircuit(t)
	p := New(c, 100, 100, 2)
	p.X = []float64{0, 10, 20, 10, 30}
	p.Y = []float64{0, 0, 10, 20, 10}
	p.Width = []float64{0, 1, 2, 3, 0}
	if got := p.Dist(1, 2); got != 20 {
		t.Errorf("Dist = %v, want 20", got)
	}
	p.Swap(1, 2)
	if p.X[1] != 20 || p.Y[1] != 10 || p.X[2] != 10 || p.Y[2] != 0 {
		t.Error("Swap positions wrong")
	}
	if p.Width[1] != 2 || p.Width[2] != 1 {
		t.Error("Swap widths wrong")
	}
	// Swap twice restores.
	p.Swap(1, 2)
	if p.X[1] != 10 || p.X[2] != 20 || p.Width[1] != 1 {
		t.Error("double swap must restore")
	}
}

func TestGatePitch(t *testing.T) {
	c := smallCircuit(t) // 3 cells
	p := New(c, 90, 90, 2)
	want := 90 / math.Sqrt(3)
	if got := p.GatePitch(); math.Abs(got-want) > 1e-9 {
		t.Errorf("GatePitch = %v, want %v", got, want)
	}
	empty := New(netlist.New("e"), 50, 40, 2)
	if got := empty.GatePitch(); got != 50 {
		t.Errorf("empty GatePitch = %v, want 50", got)
	}
}

func TestLegalizeResolvesOverlaps(t *testing.T) {
	c := netlist.New("over")
	pi := c.AddGate("in", "", netlist.PI)
	var ids []int
	for i := 0; i < 10; i++ {
		g := c.AddGate("g", "INVX1", netlist.Comb)
		_ = c.Connect(pi.ID, g.ID)
		ids = append(ids, g.ID)
	}
	p := New(c, 50, 10, 2)
	// Pile everything at the same spot with width 3.
	for _, id := range ids {
		p.X[id], p.Y[id], p.Width[id] = 5, 3.1, 3
	}
	if p.OverlapCount() == 0 {
		t.Fatal("expected overlaps before legalization")
	}
	disp, err := p.Legalize()
	if err != nil {
		t.Fatal(err)
	}
	if disp <= 0 {
		t.Error("legalization should report displacement")
	}
	if got := p.OverlapCount(); got != 0 {
		t.Errorf("overlaps after legalize = %d", got)
	}
	if err := p.InBounds(); err != nil {
		t.Errorf("off-die after legalize: %v", err)
	}
	// All snapped to a row grid.
	for _, id := range ids {
		r := p.Y[id] / p.RowHeight
		if math.Abs(r-math.Round(r)) > 1e-9 {
			t.Errorf("cell %d not on a row: y = %v", id, p.Y[id])
		}
	}
}

// TestLegalizeIdempotent asserts that legalizing an already-legal
// placement is a no-op: zero displacement and bit-identical coordinates.
// The dosePl loop relies on this when a round's swaps land on legal
// sites already.
func TestLegalizeIdempotent(t *testing.T) {
	c := netlist.New("idem")
	pi := c.AddGate("in", "", netlist.PI)
	var ids []int
	for i := 0; i < 12; i++ {
		g := c.AddGate("g", "INVX1", netlist.Comb)
		_ = c.Connect(pi.ID, g.ID)
		ids = append(ids, g.ID)
	}
	p := New(c, 60, 12, 2)
	rng := rand.New(rand.NewSource(9))
	for _, id := range ids {
		p.X[id] = rng.Float64() * 50
		p.Y[id] = rng.Float64() * 10
		p.Width[id] = 2.5
	}
	if _, err := p.Legalize(); err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), p.X...)
	y := append([]float64(nil), p.Y...)
	disp, err := p.Legalize()
	if err != nil {
		t.Fatal(err)
	}
	if disp != 0 {
		t.Errorf("second Legalize moved cells: displacement = %v, want 0", disp)
	}
	for id := range p.X {
		if math.Float64bits(p.X[id]) != math.Float64bits(x[id]) ||
			math.Float64bits(p.Y[id]) != math.Float64bits(y[id]) {
			t.Fatalf("cell %d moved on second Legalize: (%v,%v) -> (%v,%v)",
				id, x[id], y[id], p.X[id], p.Y[id])
		}
	}
}

func TestLegalizeOverflowError(t *testing.T) {
	c := netlist.New("ovf")
	pi := c.AddGate("in", "", netlist.PI)
	var ids []int
	for i := 0; i < 4; i++ {
		g := c.AddGate("g", "INVX1", netlist.Comb)
		_ = c.Connect(pi.ID, g.ID)
		ids = append(ids, g.ID)
	}
	p := New(c, 10, 2, 2) // a single 10 µm row
	for _, id := range ids {
		p.X[id], p.Y[id], p.Width[id] = 0, 0, 4 // 16 µm of cells
	}
	if _, err := p.Legalize(); err == nil {
		t.Error("expected row-overflow error")
	}
	p.RowHeight = 0
	if _, err := p.Legalize(); err == nil {
		t.Error("expected row-height error")
	}
}

func TestInBoundsDetectsEscape(t *testing.T) {
	c := smallCircuit(t)
	p := New(c, 10, 10, 2)
	p.X[1] = 50
	if err := p.InBounds(); err == nil {
		t.Error("expected off-die error")
	}
}

// Property: HPWL is invariant under translation of all cells.
func TestPropertyHPWLTranslationInvariant(t *testing.T) {
	c := smallCircuit(t)
	f := func(dx, dy float64, seed int64) bool {
		dx = math.Mod(dx, 1000)
		dy = math.Mod(dy, 1000)
		if math.IsNaN(dx) || math.IsNaN(dy) {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		p := New(c, 1e6, 1e6, 2)
		for i := range p.X {
			p.X[i] = rng.Float64() * 100
			p.Y[i] = rng.Float64() * 100
		}
		before := p.TotalHPWL()
		for i := range p.X {
			p.X[i] += dx
			p.Y[i] += dy
		}
		after := p.TotalHPWL()
		return math.Abs(before-after) < 1e-6*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: swapping two cells and swapping back restores total HPWL.
func TestPropertySwapInvolution(t *testing.T) {
	c := smallCircuit(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(c, 1000, 1000, 2)
		for i := range p.X {
			p.X[i] = rng.Float64() * 100
			p.Y[i] = rng.Float64() * 100
			p.Width[i] = rng.Float64()
		}
		before := p.TotalHPWL()
		a, b := 1+rng.Intn(3), 1+rng.Intn(3)
		p.Swap(a, b)
		p.Swap(a, b)
		return math.Abs(p.TotalHPWL()-before) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: legalization never leaves overlaps when total cell width per
// row fits on the die.
func TestPropertyLegalizeNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := netlist.New("p")
		pi := c.AddGate("in", "", netlist.PI)
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g := c.AddGate("g", "INVX1", netlist.Comb)
			_ = c.Connect(pi.ID, g.ID)
		}
		p := New(c, 200, 20, 2)
		for id := 1; id <= n; id++ {
			p.X[id] = rng.Float64() * 190
			p.Y[id] = rng.Float64() * 18
			p.Width[id] = 0.5 + rng.Float64()*2
		}
		if _, err := p.Legalize(); err != nil {
			return false
		}
		return p.OverlapCount() == 0 && p.InBounds() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
