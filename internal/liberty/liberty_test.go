package liberty

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tech"
)

func TestLibraryInventory(t *testing.T) {
	for _, node := range []*tech.Node{tech.N65(), tech.N90()} {
		lib := New(node)
		comb := len(lib.CombMasters())
		seq := len(lib.SeqMasters())
		// The paper's production library: 36 combinational + 9 sequential.
		if comb != 36 {
			t.Errorf("%s: %d combinational masters, want 36", node.Name, comb)
		}
		if seq != 9 {
			t.Errorf("%s: %d sequential masters, want 9", node.Name, seq)
		}
		if len(lib.Masters) != 45 {
			t.Errorf("%s: %d masters total, want 45", node.Name, len(lib.Masters))
		}
		// Names must be unique and resolvable.
		seen := map[string]bool{}
		for _, m := range lib.Masters {
			if seen[m.Name] {
				t.Errorf("duplicate master %q", m.Name)
			}
			seen[m.Name] = true
			got, ok := lib.Master(m.Name)
			if !ok || got != m {
				t.Errorf("Master(%q) lookup failed", m.Name)
			}
		}
	}
}

func TestMustMasterPanics(t *testing.T) {
	lib := New(tech.N65())
	defer func() {
		if recover() == nil {
			t.Error("MustMaster should panic on unknown name")
		}
	}()
	lib.MustMaster("FROBX1")
}

func TestDriveStrengthOrdering(t *testing.T) {
	lib := New(tech.N65())
	x1 := lib.MustMaster("INVX1")
	x4 := lib.MustMaster("INVX4")
	// Same conditions: stronger drive is faster and leakier, with more
	// input capacitance.
	if d1, d4 := x1.Delay(0, 0, 0, 30, 6), x4.Delay(0, 0, 0, 30, 6); d4 >= d1 {
		t.Errorf("INVX4 delay %v should beat INVX1 %v", d4, d1)
	}
	if x4.Leakage(0, 0, 0) <= x1.Leakage(0, 0, 0) {
		t.Error("INVX4 should leak more than INVX1")
	}
	if x4.CIn <= x1.CIn {
		t.Error("INVX4 input cap should exceed INVX1")
	}
	if x4.Area <= x1.Area {
		t.Error("INVX4 area should exceed INVX1")
	}
}

func TestComplexGatesSlower(t *testing.T) {
	lib := New(tech.N65())
	inv := lib.MustMaster("INVX1")
	nand4 := lib.MustMaster("NAND4X1")
	if nand4.Delay(0, 0, 0, 30, 6) <= inv.Delay(0, 0, 0, 30, 6) {
		t.Error("NAND4X1 should be slower than INVX1 at equal drive")
	}
}

// TestDoseShapeOnCells reproduces the Fig. 3-6 shapes at the cell level:
// delay ~linear in ΔL and ΔW; leakage exponential in ΔL, linear in ΔW.
func TestDoseShapeOnCells(t *testing.T) {
	lib := New(tech.N65())
	m := lib.MustMaster("INVX1")

	// Fig. 3: delay vs L near-linear, increasing.
	var prev float64
	for i, dl := range []float64{-10, -5, 0, 5, 10} {
		d := m.Delay(dl, 0, 0, 30, 6)
		if i > 0 && d <= prev {
			t.Errorf("delay must increase with L (ΔL=%v)", dl)
		}
		prev = d
	}
	// Fig. 4: delay decreasing in ΔW.
	if m.Delay(0, 10, 0, 30, 6) >= m.Delay(0, -10, 0, 30, 6) {
		t.Error("delay must decrease as width grows")
	}
	// Fig. 5: leakage convex decreasing in L (exponential shape).
	l1 := m.Leakage(-10, 0, 0)
	l2 := m.Leakage(0, 0, 0)
	l3 := m.Leakage(10, 0, 0)
	if !(l1 > l2 && l2 > l3) {
		t.Errorf("leakage must decrease with L: %v %v %v", l1, l2, l3)
	}
	if (l1 - l2) <= (l2 - l3) {
		t.Error("leakage vs L must be convex (exponential-like)")
	}
	// Fig. 6: leakage linear increasing in ΔW.
	a := m.Leakage(0, -10, 0)
	b := m.Leakage(0, 0, 0)
	c := m.Leakage(0, 10, 0)
	if !(a < b && b < c) {
		t.Errorf("leakage must increase with W: %v %v %v", a, b, c)
	}
	if math.Abs((c-b)-(b-a)) > 1e-9*b {
		t.Error("leakage vs W must be linear")
	}
}

func TestDoseSteps(t *testing.T) {
	steps := DoseSteps()
	if len(steps) != 21 {
		t.Fatalf("DoseSteps length = %d, want 21", len(steps))
	}
	if steps[0] != -5 || steps[20] != 5 {
		t.Errorf("endpoints = %v, %v", steps[0], steps[20])
	}
	for i := 1; i < len(steps); i++ {
		if math.Abs(steps[i]-steps[i-1]-DoseStep) > 1e-9 {
			t.Errorf("non-uniform step at %d", i)
		}
	}
}

func TestSnapDose(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.24, 0}, {0.26, 0.5}, {4.9, 5}, {7, 5}, {-7, -5}, {-0.75, -1}, {-0.7, -0.5}, {2.5, 2.5},
	}
	for _, c := range cases {
		if got := SnapDose(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SnapDose(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTableMatchesAnalyticOnGrid: every NLDM table entry is the
// analytic device model at that (slew, load) grid point, bit for bit.
func TestTableMatchesAnalyticOnGrid(t *testing.T) {
	lib := New(tech.N65())
	m := lib.MustMaster("NAND2X2")
	tab := m.CharacterizeTable(3, -2)
	if len(tab.Delay) != len(tab.Slews) || len(tab.Slew) != len(tab.Slews) {
		t.Fatalf("table has %d×%d rows for %d slews", len(tab.Delay), len(tab.Slew), len(tab.Slews))
	}
	for i, s := range tab.Slews {
		for j, c := range tab.Loads {
			d, os := tab.Delay[i][j], tab.Slew[i][j]
			wantD := m.Delay(3, -2, 0, s, c)
			wantS := m.OutSlew(3, -2, 0, s, c)
			if math.Float64bits(d) != math.Float64bits(wantD) || math.Float64bits(os) != math.Float64bits(wantS) {
				t.Fatalf("grid point (%d,%d): table (%v,%v) vs analytic (%v,%v)", i, j, d, os, wantD, wantS)
			}
		}
	}
}

func TestSequentialMasters(t *testing.T) {
	lib := New(tech.N65())
	dff := lib.MustMaster("DFFX1")
	if !dff.Seq {
		t.Error("DFFX1 must be sequential")
	}
	if dff.Setup <= 0 {
		t.Error("DFFX1 must have a setup time")
	}
	inv := lib.MustMaster("INVX1")
	if inv.Seq || inv.Setup != 0 {
		t.Error("INVX1 must be combinational with zero setup")
	}
}

// Property: the characterized delay table is monotone in both slew and
// load (delay tables of real libraries are monotone; the analytic model
// guarantees it at every grid point).
func TestPropertyTableMonotone(t *testing.T) {
	lib := New(tech.N90())
	tab := lib.MustMaster("NOR2X1").CharacterizeTable(-4, 3)
	ns, nl := len(tab.Slews), len(tab.Loads)
	f := func(s1, s2, c1, c2 uint8) bool {
		sa, sb := int(s1)%ns, int(s2)%ns
		ca, cb := int(c1)%nl, int(c2)%nl
		if sa > sb {
			sa, sb = sb, sa
		}
		if ca > cb {
			ca, cb = cb, ca
		}
		return tab.Delay[sb][cb] >= tab.Delay[sa][ca]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: snapped doses stay within the equipment range and within half
// a step of the request (when the request is in range).
func TestPropertySnapDose(t *testing.T) {
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		s := SnapDose(d)
		if s < -5 || s > 5 {
			return false
		}
		if d >= -5 && d <= 5 && math.Abs(s-d) > DoseStep/2+1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSnapDoseUp(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.1, 0.5}, {0.5, 0.5}, {-0.1, 0}, {-0.6, -0.5}, {4.8, 5}, {7, 5}, {-7, -5},
	}
	for _, c := range cases {
		if got := SnapDoseUp(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SnapDoseUp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Property: result is always ≥ the (clamped) input and on-grid.
	f := func(d float64) bool {
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return true
		}
		s := SnapDoseUp(d)
		cl := math.Max(-5, math.Min(5, d))
		return s >= cl-1e-9 && s <= 5 && math.Abs(s/DoseStep-math.Round(s/DoseStep)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
