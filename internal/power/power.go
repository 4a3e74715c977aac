// Package power provides the leakage-power-analysis substrate standing in
// for the paper's Cadence SoC Encounter reports: per-instance leakage
// from the characterized library at dose-perturbed geometry, and chip
// roll-ups in µW.
package power

import (
	"repro/internal/liberty"
)

// NWPerUW converts nW to µW.
const NWPerUW = 1000.0

// Total returns the design's total leakage in µW.  dL and dW are per-gate
// geometry deltas in nm; nil slices mean zero everywhere.
func Total(masters []*liberty.Master, dL, dW []float64) float64 {
	total := 0.0
	for id, m := range masters {
		if m == nil {
			continue
		}
		var dl, dw float64
		if dL != nil {
			dl = dL[id]
		}
		if dW != nil {
			dw = dW[id]
		}
		total += m.Leakage(dl, dw)
	}
	return total / NWPerUW
}

// TotalV is Total with an additional per-gate threshold-voltage delta in
// V (from body bias).  A nil dVth takes the exact unbiased path, so the
// dose-only flow is bit-identical to Total.
func TotalV(masters []*liberty.Master, dL, dW, dVth []float64) float64 {
	if dVth == nil {
		return Total(masters, dL, dW)
	}
	total := 0.0
	for id, m := range masters {
		if m == nil {
			continue
		}
		var dl, dw float64
		if dL != nil {
			dl = dL[id]
		}
		if dW != nil {
			dw = dW[id]
		}
		total += m.LeakageV(dl, dw, dVth[id])
	}
	return total / NWPerUW
}

// PerGate returns each gate's leakage in nW (zero for ports).
func PerGate(masters []*liberty.Master, dL, dW []float64) []float64 {
	out := make([]float64, len(masters))
	for id, m := range masters {
		if m == nil {
			continue
		}
		var dl, dw float64
		if dL != nil {
			dl = dL[id]
		}
		if dW != nil {
			dw = dW[id]
		}
		out[id] = m.Leakage(dl, dw)
	}
	return out
}
