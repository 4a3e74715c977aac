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

	want := (inv.Leakage(0, 0) + nand.Leakage(0, 0)) / NWPerUW
	if got := Total(masters, nil, nil); math.Abs(got-want) > 1e-12 {
		t.Errorf("Total = %v, want %v", got, want)
	}

	per := PerGate(masters, nil, nil)
	if per[0] != 0 || per[3] != 0 {
		t.Error("ports must have zero leakage")
	}
	if math.Abs(per[1]-inv.Leakage(0, 0)) > 1e-12 {
		t.Error("PerGate mismatch")
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
	base := Total(masters, nil, nil)
	if hi := Total(masters, shorter, nil); hi <= base {
		t.Errorf("shorter gates must leak more: %v vs %v", hi, base)
	}
	if lo := Total(masters, longer, nil); lo >= base {
		t.Errorf("longer gates must leak less: %v vs %v", lo, base)
	}
	if w := Total(masters, nil, wider); w <= base {
		t.Errorf("wider gates must leak more: %v vs %v", w, base)
	}
}

func TestMixedPerGateDeltas(t *testing.T) {
	lib := liberty.New(tech.N65())
	inv := lib.MustMaster("INVX1")
	masters := []*liberty.Master{inv, inv}
	dL := []float64{-10, +10}
	per := PerGate(masters, dL, nil)
	if per[0] <= per[1] {
		t.Error("per-gate deltas must be applied individually")
	}
	sum := (per[0] + per[1]) / NWPerUW
	if got := Total(masters, dL, nil); math.Abs(got-sum) > 1e-12 {
		t.Errorf("Total %v != sum of PerGate %v", got, sum)
	}
}
