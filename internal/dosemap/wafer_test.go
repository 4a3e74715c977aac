package dosemap

import (
	"math"
	"strings"
	"testing"
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

// TestNewWaferFieldCap: a layout whose usable disc has the area of
// more than MaxWaferFields fields, or whose field is wider or taller
// than the usable radius, is refused before the scan, however many
// positions that would visit; every layout it accepts has at least one
// and at most MaxWaferFields fields.
func TestNewWaferFieldCap(t *testing.T) {
	refused := []struct {
		d, w, h, e float64
		want       string
	}{
		{300, 0.01, 0.01, 3, "above the cap"},  // about 7·10⁸ fields
		{300, 5, 5, 3, "above the cap"},        // 2,716 by area
		{300, 1e-6, 100, 3, "above the cap"},   // a sliver field
		{300, 1e-6, 1e6, 3, "no printable"},    // taller than the wafer
		{300, 1e-6, 1e-6, 150, "no printable"}, // no usable disc
		{300, 1e-6, 1e-6, 400, "no printable"}, // exclusion past the edge
		{math.NaN(), 26, 33, 3, "bad wafer spec"},
	}
	for _, tc := range refused {
		if w, err := NewWafer(tc.d, tc.w, tc.h, tc.e); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("NewWafer(%g, %g, %g, %g) = %v, %v; want an error containing %q", tc.d, tc.w, tc.h, tc.e, w, err, tc.want)
		}
	}
	for _, tc := range [][4]float64{{300, 26, 33, 3}, {300, 58, 58, 3}, {300, 10, 10, 3}, {300, 1e-3, 1e-3, 149.99}} {
		w, err := NewWafer(tc[0], tc[1], tc[2], tc[3])
		if err != nil {
			t.Errorf("NewWafer%v: %v", tc, err)
			continue
		}
		if n := len(w.Fields); n == 0 || n > MaxWaferFields {
			t.Errorf("NewWafer%v: %d fields, want 1..%d", tc, n, MaxWaferFields)
		}
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
