package dosemap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

func mustGrid(t *testing.T, w, h, g float64) Grid {
	t.Helper()
	gr, err := NewGrid(w, h, g)
	if err != nil {
		t.Fatal(err)
	}
	return gr
}

func TestNewGrid(t *testing.T) {
	g := mustGrid(t, 241, 241, 5)
	if g.N != 49 || g.M != 49 {
		t.Errorf("grid dims = %dx%d, want 49x49", g.M, g.N)
	}
	if g.Cells() != 49*49 {
		t.Errorf("Cells = %d", g.Cells())
	}
	if _, err := NewGrid(0, 10, 5); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewGrid(10, 10, -1); err == nil {
		t.Error("negative G should fail")
	}
}

// TestNewGridCellCap: JPEG-90's die at the paper's 5 µm grid is exactly
// the cap and passes; anything finer, and grids whose cell count is not
// a finite number, fail.
func TestNewGridCellCap(t *testing.T) {
	cases := []struct {
		name    string
		w, h, g float64
		ok      bool
	}{
		{"JPEG-90 at 5 µm", 1044, 1044, 5, true},
		{"JPEG-90 at 4.99 µm", 1044, 1044, 4.99, false},
		{"JPEG-90 at 0.1 µm", 1044, 1044, 0.1, false},
		{"long thin die", 209 * 209 * 5, 5, 5, true},
		{"one cell over", 209*209*5 + 1, 5, 5, false},
		{"infinite width", math.Inf(1), 10, 5, false},
		{"NaN grid", 100, 100, math.NaN(), false},
		{"denormal grid", 100, 100, 5e-324, false},
	}
	for _, tc := range cases {
		g, err := NewGrid(tc.w, tc.h, tc.g)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok = %t", tc.name, err, tc.ok)
		}
		if err == nil && g.Cells() > MaxGridCells {
			t.Errorf("%s: %d cells passed the cap of %d", tc.name, g.Cells(), MaxGridCells)
		}
	}
}

func TestGridIndexAndCenter(t *testing.T) {
	g := mustGrid(t, 100, 50, 10)
	// 10 columns, 5 rows.
	if g.N != 10 || g.M != 5 {
		t.Fatalf("dims %dx%d", g.M, g.N)
	}
	i, j := g.Index(0, 0)
	if i != 0 || j != 0 {
		t.Errorf("Index(0,0) = %d,%d", i, j)
	}
	i, j = g.Index(99.9, 49.9)
	if i != 4 || j != 9 {
		t.Errorf("Index(corner) = %d,%d", i, j)
	}
	// Clamping.
	i, j = g.Index(-5, 500)
	if i != 4 || j != 0 {
		t.Errorf("Index(clamped) = %d,%d", i, j)
	}
}

func TestMapBasics(t *testing.T) {
	g := mustGrid(t, 30, 30, 10)
	m := NewMap(g)
	m.Set(1, 2, 3.25)
	if m.At(1, 2) != 3.25 {
		t.Error("Set/At")
	}
	if m.DoseAt(25, 15) != 3.25 {
		t.Error("DoseAt")
	}
	cl := m.Clone()
	cl.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone must not share")
	}
}

func TestSnap(t *testing.T) {
	g := mustGrid(t, 20, 20, 10)
	m := NewMap(g)
	m.Set(0, 0, 1.26)
	m.Set(0, 1, 7.0)
	m.Snap()
	if m.At(0, 0) != 1.5 || m.At(0, 1) != 5 {
		t.Errorf("Snap = %v, %v", m.At(0, 0), m.At(0, 1))
	}
}

func TestRangeAndSmoothChecks(t *testing.T) {
	g := mustGrid(t, 30, 30, 10)
	m := NewMap(g)
	for i := range m.D {
		m.D[i] = 2
	}
	if err := m.CheckRange(-5, 5); err != nil {
		t.Error(err)
	}
	if err := m.CheckSmooth(0.5); err != nil {
		t.Error("uniform map is maximally smooth")
	}
	m.Set(1, 1, 6)
	if err := m.CheckRange(-5, 5); err == nil {
		t.Error("out-of-range dose should fail")
	}
	if err := m.CheckSmooth(2); err == nil {
		t.Error("4-unit jump should violate δ=2")
	}
	if d := m.MaxNeighborDiff(); d != 4 {
		t.Errorf("MaxNeighborDiff = %v, want 4", d)
	}
}

func TestDiagonalSmoothness(t *testing.T) {
	// Eq. 4 includes the diagonal pair |d_ij − d_{i+1,j+1}|.
	g := mustGrid(t, 20, 20, 10)
	m := NewMap(g)
	m.Set(0, 0, 0)
	m.Set(1, 1, 3)
	// Horizontal/vertical neighbors of the corner are still 0.
	if d := m.MaxNeighborDiff(); d != 3 {
		t.Errorf("diagonal difference not detected: %v", d)
	}
}

func TestStats(t *testing.T) {
	g := mustGrid(t, 20, 20, 10)
	m := NewMap(g)
	copy(m.D, []float64{1, -1, 3, -3})
	s := m.Stats()
	if s.Min != -3 || s.Max != 3 || s.Mean != 0 {
		t.Errorf("Stats = %+v", s)
	}
	if math.Abs(s.RMS-math.Sqrt(5)) > 1e-12 {
		t.Errorf("RMS = %v", s.RMS)
	}
	if (&Map{}).Stats() != (Stats{}) {
		t.Error("empty map stats should be zero")
	}
}

func TestPerGate(t *testing.T) {
	c := netlist.New("t")
	pi := c.AddGate("in", "", netlist.PI)
	a := c.AddGate("a", "INVX1", netlist.Comb)
	b := c.AddGate("b", "INVX1", netlist.Comb)
	po := c.AddGate("out", "", netlist.PO)
	_ = c.Connect(pi.ID, a.ID)
	_ = c.Connect(a.ID, b.ID)
	_ = c.Connect(b.ID, po.ID)
	pl := place.New(c, 20, 20, 2)
	pl.X[a.ID], pl.Y[a.ID] = 5, 5   // grid (0,0)
	pl.X[b.ID], pl.Y[b.ID] = 15, 15 // grid (1,1)

	g := mustGrid(t, 20, 20, 10)
	poly := NewMap(g)
	poly.Set(0, 0, 2)  // ΔL = -4 nm
	poly.Set(1, 1, -1) // ΔL = +2 nm
	active := NewMap(g)
	active.Set(0, 0, -3) // ΔW = +6 nm

	dL, dW := Layers{Poly: poly, Active: active}.PerGate(c, pl, false)
	if dL[a.ID] != -4 || dL[b.ID] != 2 {
		t.Errorf("dL = %v", dL)
	}
	if dW[a.ID] != 6 || dW[b.ID] != 0 {
		t.Errorf("dW = %v", dW)
	}
	if dL[pi.ID] != 0 || dL[po.ID] != 0 {
		t.Error("ports must be untouched")
	}

	// Snapped variant rounds 2→2, -1→-1 (already on grid): same result.
	dL2, _ := Layers{Poly: poly, Active: active}.PerGate(c, pl, true)
	if dL2[a.ID] != dL[a.ID] {
		t.Error("snap changed an on-grid dose")
	}
	// Off-grid doses snap timing-safe: poly rounds up (shorter gate).
	poly.Set(0, 0, 1.7) // snaps up to 2.0 → ΔL = -4
	dL3, _ := Layers{Poly: poly, Active: active}.PerGate(c, pl, true)
	if dL3[a.ID] != -4 {
		t.Errorf("snapped dL = %v, want -4", dL3[a.ID])
	}
	// Active snaps down (wider gate): -2.7 → -3.0 → ΔW = +6.
	active.Set(0, 0, -2.7)
	_, dW3 := Layers{Poly: poly, Active: active}.PerGate(c, pl, true)
	if dW3[a.ID] != 6 {
		t.Errorf("snapped dW = %v, want 6", dW3[a.ID])
	}
	// Poly-only: dW all zero.
	_, dW2 := Layers{Poly: poly}.PerGate(c, pl, false)
	for _, v := range dW2 {
		if v != 0 {
			t.Fatal("poly-only must leave widths nominal")
		}
	}
	_ = tech.DoseSensitivity
}

func TestLegendreP(t *testing.T) {
	// P0=1, P1=y, P2=(3y²-1)/2, P3=(5y³-3y)/2.
	for _, y := range []float64{-1, -0.3, 0, 0.7, 1} {
		if LegendreP(0, y) != 1 {
			t.Error("P0")
		}
		if LegendreP(1, y) != y {
			t.Error("P1")
		}
		if math.Abs(LegendreP(2, y)-(3*y*y-1)/2) > 1e-12 {
			t.Error("P2")
		}
		if math.Abs(LegendreP(3, y)-(5*y*y*y-3*y)/2) > 1e-12 {
			t.Error("P3")
		}
	}
	// Orthogonality spot check: ∫P2·P3 over [-1,1] ≈ 0 (trapezoid).
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		y := -1 + 2*(float64(i)+0.5)/float64(n)
		sum += LegendreP(2, y) * LegendreP(3, y)
	}
	sum *= 2 / float64(n)
	if math.Abs(sum) > 1e-6 {
		t.Errorf("P2·P3 integral = %v, want 0", sum)
	}
}

func TestFitRecipeExactSeparable(t *testing.T) {
	// A map built from a quadratic slit + cubic-Legendre scan profile
	// must be fitted exactly (zero residual).
	g := mustGrid(t, 260, 330, 10)
	slit := SlitProfile{Coeffs: []float64{1, -0.5, 0.8}}
	scan := ScanProfile{Coeffs: []float64{0.2, 0.4, -0.3, 0.1}}
	m := Recipe{Slit: slit, Scan: scan}.Render(g)
	rec, err := FitRecipe(m, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RMSResidual > 1e-9 {
		t.Errorf("separable map must fit exactly, residual %v", rec.RMSResidual)
	}
	// Re-rendered map matches.
	m2 := rec.Render(g)
	for i := range m.D {
		if math.Abs(m.D[i]-m2.D[i]) > 1e-9 {
			t.Fatalf("render mismatch at %d", i)
		}
	}
}

func TestFitRecipeErrors(t *testing.T) {
	g := mustGrid(t, 40, 40, 10)
	m := NewMap(g)
	if _, err := FitRecipe(m, 7, 4); err == nil {
		t.Error("slit order > 6 should fail")
	}
	if _, err := FitRecipe(m, 2, 0); err == nil {
		t.Error("zero scan terms should fail")
	}
	if _, err := FitRecipe(m, 2, 9); err == nil {
		t.Error("scan terms > 8 should fail")
	}
}

func TestACLVBaseline(t *testing.T) {
	g := mustGrid(t, 241, 241, 5)
	m := ACLVBaseline(g, 2)
	// Must be in a sane range and smooth.
	if err := m.CheckRange(-2.5, 2.5); err != nil {
		t.Error(err)
	}
	if err := m.CheckSmooth(0.5); err != nil {
		t.Errorf("ACLV baseline must be smooth: %v", err)
	}
	// Must be well captured by the actuator recipe (it is built from a
	// radial + tilt fingerprint — nearly separable, small residual).
	rec, err := FitRecipe(m, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RMSResidual > 0.2 {
		t.Errorf("ACLV baseline residual %v too high", rec.RMSResidual)
	}
	// Zero amplitude → zero map.
	z := ACLVBaseline(g, 0)
	for _, v := range z.D {
		if v != 0 {
			t.Fatal("zero-amplitude baseline must be zero")
		}
	}
}

// Property: FitRecipe never increases RMS error versus the trivial
// all-zero recipe, and rendering a fitted recipe of a smooth random map
// reproduces the map's column/row structure within the residual.
func TestPropertyFitRecipeReducesError(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := NewGrid(100, 100, 10)
		if err != nil {
			return false
		}
		m := NewMap(g)
		// Smooth random field: sum of a few low-order terms + noise.
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		for i := 0; i < g.M; i++ {
			for j := 0; j < g.N; j++ {
				x := -1 + 2*(float64(j)+0.5)/float64(g.N)
				y := -1 + 2*(float64(i)+0.5)/float64(g.M)
				m.Set(i, j, a*x+b*y*y+c+0.1*rng.NormFloat64())
			}
		}
		rec, err := FitRecipe(m, 2, 3)
		if err != nil {
			return false
		}
		zeroRMS := m.Stats().RMS
		return rec.RMSResidual <= zeroRMS+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: grid Index is total — every point in the field maps to a
// valid cell, and points within a cell map consistently.
func TestPropertyGridIndexTotal(t *testing.T) {
	g, err := NewGrid(123, 77, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		i, j := g.Index(math.Mod(math.Abs(x), 123), math.Mod(math.Abs(y), 77))
		return i >= 0 && i < g.M && j >= 0 && j < g.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
