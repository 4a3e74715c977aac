package tech

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"N65", "65", "65nm"} {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if n.Lnom != 65 {
			t.Errorf("ByName(%q).Lnom = %v, want 65", name, n.Lnom)
		}
	}
	for _, name := range []string{"N90", "90", "90nm"} {
		n, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if n.Lnom != 90 {
			t.Errorf("ByName(%q).Lnom = %v, want 90", name, n.Lnom)
		}
	}
	if _, err := ByName("N45"); err == nil {
		t.Error("ByName(N45) should fail")
	}
}

func TestVthRollOff(t *testing.T) {
	n := N65()
	if got := n.Vth(n.Lnom); math.Abs(got-n.Vth0) > 1e-12 {
		t.Errorf("Vth(Lnom) = %v, want Vth0 = %v", got, n.Vth0)
	}
	// Shorter channel must lower Vth.
	if n.Vth(n.Lnom-10) >= n.Vth0 {
		t.Error("Vth should decrease for shorter channels")
	}
	if n.Vth(n.Lnom+10) <= n.Vth0 {
		t.Error("Vth should increase for longer channels")
	}
}

// TestLeakFactorCalibration checks the Table II / Table III endpoint
// ratios: a full-range dose swing of ±5% (ΔL = ∓10 nm) must reproduce the
// paper's total-leakage ratios to within a couple of percent.
func TestLeakFactorCalibration(t *testing.T) {
	cases := []struct {
		node         *Node
		hiRatio      float64 // leakage ratio at ΔL = -10 nm (dose +5%)
		loRatio      float64 // leakage ratio at ΔL = +10 nm (dose -5%)
		hiTol, loTol float64
	}{
		{N65(), 2.5496, 0.6241, 0.05, 0.02}, // 1142.2/448.0, 279.6/448.0
		{N90(), 1.9007, 0.6995, 0.05, 0.02}, // 4619.0/2430.2, 1699.8/2430.2
	}
	for _, c := range cases {
		n := c.node
		hi := n.LeakFactor(n.Lnom-10, n.Wnom, n.Wnom, 0)
		lo := n.LeakFactor(n.Lnom+10, n.Wnom, n.Wnom, 0)
		if math.Abs(hi-c.hiRatio) > c.hiTol {
			t.Errorf("%s: leak ratio at ΔL=-10 = %.4f, want %.4f±%.2f", n.Name, hi, c.hiRatio, c.hiTol)
		}
		if math.Abs(lo-c.loRatio) > c.loTol {
			t.Errorf("%s: leak ratio at ΔL=+10 = %.4f, want %.4f±%.2f", n.Name, lo, c.loRatio, c.loTol)
		}
	}
}

func TestLeakFactorShapes(t *testing.T) {
	n := N65()
	// Exponential in L: log(leak) vs L is affine for the subthreshold
	// component; the total must be strictly decreasing and convex in L.
	prev := math.Inf(1)
	var prevDiff float64
	first := true
	for l := n.Lnom - 10; l <= n.Lnom+10; l++ {
		f := n.LeakFactor(l, n.Wnom, n.Wnom, 0)
		if f >= prev {
			t.Fatalf("leakage not strictly decreasing in L at L=%v", l)
		}
		if !first {
			diff := prev - f
			if prevDiff != 0 && diff >= prevDiff {
				t.Fatalf("leakage not convex in L at L=%v", l)
			}
			prevDiff = diff
		}
		first = false
		prev = f
	}
	// Linear in W: f(L, w) must be exactly proportional to w.
	f1 := n.LeakFactor(n.Lnom, 200, n.Wnom, 0)
	f2 := n.LeakFactor(n.Lnom, 400, n.Wnom, 0)
	if math.Abs(f2-2*f1) > 1e-12 {
		t.Errorf("leakage not linear in W: f(400)=%v, 2·f(200)=%v", f2, 2*f1)
	}
}

func TestDriveFactor(t *testing.T) {
	n := N65()
	if got := n.DriveFactor(n.Lnom, n.Wnom, n.Wnom); math.Abs(got-1) > 1e-12 {
		t.Errorf("DriveFactor at nominal = %v, want 1", got)
	}
	// Longer L → more resistance; wider W → less resistance.
	if n.DriveFactor(n.Lnom+5, n.Wnom, n.Wnom) <= 1 {
		t.Error("DriveFactor should exceed 1 for longer L")
	}
	if n.DriveFactor(n.Lnom, 2*n.Wnom, n.Wnom) >= 1 {
		t.Error("DriveFactor should drop below 1 for wider W")
	}
	// Near-linearity: the quadratic correction must stay small over the
	// dose-reachable range (±10 nm): within 1% of the linear term.
	for dl := -10.0; dl <= 10; dl++ {
		got := n.DriveFactor(n.Lnom+dl, n.Wnom, n.Wnom)
		lin := 1 + n.DelaySlopeL*dl
		if math.Abs(got-lin) > 0.01 {
			t.Errorf("DriveFactor at ΔL=%v deviates from linear by %v", dl, got-lin)
		}
	}
}

func newTestDevice(n *Node) *Device {
	return &Device{Node: n, Drive: 1, WNom: n.Wnom, TIntr: 8, CPar: 1.0, LeakNom: n.Leak0}
}

func TestDeviceDelayMonotone(t *testing.T) {
	d := newTestDevice(N65())
	base := d.Delay(65, 0, 0, 30, 4)
	if d.Delay(75, 0, 0, 30, 4) <= base {
		t.Error("delay should increase with L")
	}
	if d.Delay(55, 0, 0, 30, 4) >= base {
		t.Error("delay should decrease with shorter L")
	}
	if d.Delay(65, 50, 0, 30, 4) >= base {
		t.Error("delay should decrease with wider W")
	}
	if d.Delay(65, 0, 0, 60, 4) <= base {
		t.Error("delay should increase with input slew")
	}
	if d.Delay(65, 0, 0, 30, 8) <= base {
		t.Error("delay should increase with load")
	}
}

func TestDeviceOutSlewMonotone(t *testing.T) {
	d := newTestDevice(N65())
	base := d.OutSlew(65, 0, 0, 30, 4)
	if d.OutSlew(55, 0, 0, 30, 4) >= base {
		t.Error("output slew should improve (decrease) with shorter L")
	}
	if d.OutSlew(65, 0, 0, 30, 8) <= base {
		t.Error("output slew should increase with load")
	}
}

func TestDeviceLeakageScalesWithDrive(t *testing.T) {
	n := N65()
	d1 := newTestDevice(n)
	d4 := newTestDevice(n)
	d4.Drive = 4
	l1 := d1.Leakage(n.Lnom, 0, 0)
	l4 := d4.Leakage(n.Lnom, 0, 0)
	if math.Abs(l4-4*l1) > 1e-9 {
		t.Errorf("leakage should scale with drive: X4=%v, 4·X1=%v", l4, 4*l1)
	}
}

func TestDoseConversions(t *testing.T) {
	if got := DoseToLength(5); got != -10 {
		t.Errorf("DoseToLength(5) = %v, want -10", got)
	}
	if got := DoseToWidth(-5); got != 10 {
		t.Errorf("DoseToWidth(-5) = %v, want 10", got)
	}
}

// Property: for any dose in the equipment range, increasing the dose
// strictly decreases delay and strictly increases leakage — the fundamental
// tradeoff the whole paper exploits ("no free lunch" for uniform dose).
func TestPropertyDoseTradeoff(t *testing.T) {
	n := N65()
	d := newTestDevice(n)
	f := func(doseRaw, doseRaw2 float64) bool {
		// Map arbitrary float64s into the ±5% equipment range.
		d1 := math.Mod(math.Abs(doseRaw), 5.0)
		d2 := math.Mod(math.Abs(doseRaw2), 5.0)
		if d1 == d2 {
			return true
		}
		lo, hi := math.Min(d1, d2), math.Max(d1, d2)
		lLo, lHi := n.Lnom+DoseToLength(lo), n.Lnom+DoseToLength(hi)
		// Higher dose → shorter L → faster, leakier.
		return d.Delay(lHi, 0, 0, 30, 4) < d.Delay(lLo, 0, 0, 30, 4) &&
			d.Leakage(lHi, 0, 0) > d.Leakage(lLo, 0, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: LeakFactor is linear in W for any L in the reachable range.
func TestPropertyLeakLinearInW(t *testing.T) {
	n := N90()
	f := func(lRaw, wRaw float64) bool {
		dl := math.Mod(math.Abs(lRaw), 10)
		w := n.Wmin + math.Mod(math.Abs(wRaw), n.Wmax-n.Wmin)
		l := n.Lnom + dl - 5
		a := n.LeakFactor(l, w, n.Wnom, 0)
		b := n.LeakFactor(l, 2*w, n.Wnom, 0)
		return math.Abs(b-2*a) < 1e-9*math.Abs(b)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLeakExpK(t *testing.T) {
	n := N65()
	want := 0.1416
	if got := n.LeakExpK(); math.Abs(got-want) > 0.002 {
		t.Errorf("N65 LeakExpK = %v, want ≈%v", got, want)
	}
	n90 := N90()
	want90 := 0.10977
	if got := n90.LeakExpK(); math.Abs(got-want90) > 0.002 {
		t.Errorf("N90 LeakExpK = %v, want ≈%v", got, want90)
	}
}
