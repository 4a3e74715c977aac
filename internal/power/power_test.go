package power

import (
	"math"
	"testing"

	"repro/internal/liberty"
	"repro/internal/tech"
)

func TestGateAndTotal(t *testing.T) {
	lib := liberty.New(tech.N65())
	inv := lib.MustMaster("INVX1")
	nand := lib.MustMaster("NAND2X2")
	masters := []*liberty.Master{nil, inv, nand, nil} // ports at 0, 3

	want := (inv.Leakage(0, 0, 0) + nand.Leakage(0, 0, 0)) / NWPerUW
	if got := Total(masters, nil, nil, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, want)
	}
	if got := Total([]*liberty.Master{nil, nil}, nil, nil, nil); got != 0 {
		t.Errorf("ports must have zero leakage, Total = %v", got)
	}
}

func TestTotalRespondsToDose(t *testing.T) {
	lib := liberty.New(tech.N65())
	masters := []*liberty.Master{lib.MustMaster("INVX1"), lib.MustMaster("NOR2X1")}
	n := len(masters)
	shorter := make([]float64, n)
	longer := make([]float64, n)
	wider := make([]float64, n)
	for i := 0; i < n; i++ {
		shorter[i] = -10
		longer[i] = 10
		wider[i] = 10
	}
	base := Total(masters, nil, nil, nil)
	if hi := Total(masters, shorter, nil, nil); hi <= base {
		t.Errorf("shorter gates must leak more: %v vs %v", hi, base)
	}
	if lo := Total(masters, longer, nil, nil); lo >= base {
		t.Errorf("longer gates must leak less: %v vs %v", lo, base)
	}
	if w := Total(masters, nil, wider, nil); w <= base {
		t.Errorf("wider gates must leak more: %v vs %v", w, base)
	}
}

func TestMixedPerGateDeltas(t *testing.T) {
	lib := liberty.New(tech.N65())
	inv := lib.MustMaster("INVX1")
	masters := []*liberty.Master{inv, inv}
	dL := []float64{-10, +10}
	sum := (inv.Leakage(-10, 0, 0) + inv.Leakage(10, 0, 0)) / NWPerUW
	if got := Total(masters, dL, nil, nil); math.Abs(got-sum) > 1e-12 {
		t.Errorf("Total %v != sum of per-gate leakage %v", got, sum)
	}
}

// TestTotalThresholdShift checks the ΔVth argument: an all-zero shift
// is bit-identical to a nil one, and a forward-bias shift (lower Vth)
// applied to one gate only raises that gate's leakage.
func TestTotalThresholdShift(t *testing.T) {
	lib := liberty.New(tech.N65())
	inv := lib.MustMaster("INVX1")
	masters := []*liberty.Master{inv, nil, inv}
	dL := []float64{-4, 0, 6}
	base := Total(masters, dL, nil, nil)
	if got := Total(masters, dL, nil, make([]float64, 3)); math.Float64bits(got) != math.Float64bits(base) {
		t.Errorf("zero ΔVth Total %v differs from nil ΔVth %v", got, base)
	}
	dVth := []float64{-0.03, 0, 0}
	want := (inv.Leakage(-4, 0, -0.03) + inv.Leakage(6, 0, 0)) / NWPerUW
	got := Total(masters, dL, nil, dVth)
	if math.Abs(got-want) > 1e-12 || got <= base {
		t.Errorf("forward-biased Total = %v, want %v (> unbiased %v)", got, want, base)
	}
}
