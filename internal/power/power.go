// Package power provides the leakage-power-analysis substrate standing in
// for the paper's Cadence SoC Encounter reports: the chip roll-up in µW
// of every instance's leakage from the characterized library at
// dose-perturbed geometry and body-bias-shifted threshold.
package power

import (
	"repro/internal/liberty"
)

// NWPerUW converts nW to µW.
const NWPerUW = 1000.0

// Total returns the design's total leakage in µW.  dL and dW are per-gate
// geometry deltas in nm and dVth per-gate threshold-voltage deltas in V
// (from body bias); nil slices mean zero everywhere, and a zero ΔVth
// leaves a cell on the unbiased device model.
func Total(masters []*liberty.Master, dL, dW, dVth []float64) float64 {
	total := 0.0
	for id, m := range masters {
		if m == nil {
			continue
		}
		var dl, dw, dv float64
		if dL != nil {
			dl = dL[id]
		}
		if dW != nil {
			dw = dW[id]
		}
		if dVth != nil {
			dv = dVth[id]
		}
		total += m.Leakage(dl, dw, dv)
	}
	return total / NWPerUW
}
