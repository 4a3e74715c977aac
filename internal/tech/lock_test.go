package tech

import (
	"hash/fnv"
	"math"
	"testing"
)

// TestDeviceModelLock pins the device model's Delay, OutSlew and
// Leakage to the exact bit patterns they produce over a sweep of both
// nodes, several drives, gate-length and width deltas, input slews,
// output loads and threshold shifts, ΔVth = 0 included.  Any change to
// an expression's evaluation order or to the ΔVth = 0 path moves the
// FNV-64a digest.
func TestDeviceModelLock(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	n := 0
	for _, node := range []*Node{N65(), N90()} {
		for _, drive := range []float64{0.8, 1, 2, 4} {
			d := &Device{Node: node, Drive: drive, WNom: 1.15 * node.Wnom, TIntr: 4.5, CPar: 1.3, LeakNom: 1.5 * node.Leak0}
			for _, dl := range []float64{-10, -3.5, 0, 4, 10} {
				l := node.Lnom + dl
				for _, dw := range []float64{-20, 0, 15} {
					for _, dvth := range []float64{0, 0.02, -0.02, 0.05} {
						w64(d.Leakage(l, dw, dvth))
						for _, slew := range []float64{5, 30, 120} {
							for _, load := range []float64{0.5, 6, 48} {
								w64(d.Delay(l, dw, dvth, slew, load))
								w64(d.OutSlew(l, dw, dvth, slew, load))
								n++
							}
						}
					}
				}
			}
		}
	}
	if n != 2*4*5*3*4*3*3 {
		t.Fatalf("swept %d points", n)
	}
	const want = 0x7649f9df569ec221
	if got := h.Sum64(); got != want {
		t.Errorf("device model hash %#016x, want %#016x — Delay, OutSlew or Leakage no longer reproduces its recorded bits", got, uint64(want))
	}
}
