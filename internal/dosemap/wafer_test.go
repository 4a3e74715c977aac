package dosemap

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewWaferLayout(t *testing.T) {
	w, err := NewWafer(300, 26, 33, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A 300 mm wafer fits on the order of 50-90 full 26x33 mm fields.
	if len(w.Fields) < 40 || len(w.Fields) > 120 {
		t.Errorf("field count = %d, expected a production-like layout", len(w.Fields))
	}
	// Every field fully inside the usable radius.
	usable := 150.0 - 3
	for _, f := range w.Fields {
		for _, dx := range []float64{-13, 13} {
			for _, dy := range []float64{-16.5, 16.5} {
				if math.Hypot(f.CX+dx, f.CY+dy) > usable+1e-9 {
					t.Fatalf("field (%d,%d) corner off-wafer", f.Col, f.Row)
				}
			}
		}
	}
	// Symmetry: for every field there is a mirrored partner.
	seen := map[[2]int]bool{}
	for _, f := range w.Fields {
		seen[[2]int{f.Col, f.Row}] = true
	}
	for _, f := range w.Fields {
		if !seen[[2]int{-1 - f.Col, f.Row}] {
			t.Fatalf("layout not x-symmetric at (%d,%d)", f.Col, f.Row)
		}
	}
	if _, err := NewWafer(0, 26, 33, 3); err == nil {
		t.Error("bad wafer spec should fail")
	}
	if _, err := NewWafer(20, 26, 33, 3); err == nil {
		t.Error("field larger than wafer should fail")
	}
}

func TestRadialCD(t *testing.T) {
	w, err := NewWafer(300, 26, 33, 3)
	if err != nil {
		t.Fatal(err)
	}
	fp := RadialCD{Center: -1, Edge: 3, Power: 2}
	if got := fp.At(w, 0, 0); got != -1 {
		t.Errorf("center bias = %v", got)
	}
	if got := fp.At(w, 147, 0); math.Abs(got-3) > 1e-9 {
		t.Errorf("edge bias = %v", got)
	}
	// Beyond the usable radius the profile clamps.
	if got := fp.At(w, 400, 0); math.Abs(got-3) > 1e-9 {
		t.Errorf("clamped bias = %v", got)
	}
	// Monotone outward for a bowl.
	prev := fp.At(w, 0, 0)
	for r := 10.0; r < 140; r += 10 {
		v := fp.At(w, r, 0)
		if v < prev {
			t.Fatalf("bowl not monotone at r=%v", r)
		}
		prev = v
	}
}

func TestTile(t *testing.T) {
	g := mustGrid(t, 30, 20, 10)
	m := NewMap(g)
	for i := 0; i < g.M; i++ {
		for j := 0; j < g.N; j++ {
			m.Set(i, j, float64(i*10+j))
		}
	}
	tl, err := m.Tile(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Grid.N != g.N*2 || tl.Grid.M != g.M*3 {
		t.Fatalf("tiled dims %dx%d", tl.Grid.M, tl.Grid.N)
	}
	for i := 0; i < tl.Grid.M; i++ {
		for j := 0; j < tl.Grid.N; j++ {
			if tl.At(i, j) != m.At(i%g.M, j%g.N) {
				t.Fatalf("tile value mismatch at %d,%d", i, j)
			}
		}
	}
	if _, err := m.Tile(0, 1); err == nil {
		t.Error("bad tiling should fail")
	}
}

func TestCheckTiledSmooth(t *testing.T) {
	g := mustGrid(t, 40, 40, 10)
	// A horizontal ramp 0,1,2,3 is interior-smooth at δ=1 but its seam
	// (3 against 0) violates tiling smoothness.
	m := NewMap(g)
	for i := 0; i < g.M; i++ {
		for j := 0; j < g.N; j++ {
			m.Set(i, j, float64(j))
		}
	}
	if err := m.CheckSmooth(1); err != nil {
		t.Fatalf("interior smoothness should pass: %v", err)
	}
	if err := m.CheckTiledSmooth(1); err == nil {
		t.Error("seam violation must be detected")
	}
	// A flat map tiles fine.
	if err := Uniform(g, 2).CheckTiledSmooth(0.1); err != nil {
		t.Errorf("uniform map must tile: %v", err)
	}
}

// Property: CheckTiledSmooth(δ) passing implies the explicitly tiled 2x2
// map passes plain CheckSmooth(δ) — the seam check is exactly what
// tiling adds.
func TestPropertyTiledSmoothEquivalence(t *testing.T) {
	g, err := NewGrid(40, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals [16]float64) bool {
		m := NewMap(g)
		for i := range m.D {
			m.D[i] = math.Mod(math.Abs(vals[i%16]), 10) - 5
			if math.IsNaN(m.D[i]) {
				m.D[i] = 0
			}
		}
		const delta = 2.0
		tiled, err := m.Tile(2, 2)
		if err != nil {
			return false
		}
		seamOK := m.CheckTiledSmooth(delta) == nil
		fullOK := tiled.CheckSmooth(delta) == nil
		return seamOK == fullOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
