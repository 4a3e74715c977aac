// Actuator abstraction of the DMopt formulation.
//
// The paper optimizes a single actuator — exposure dose → CD → delay and
// leakage — but the same convex structure (linear per-gate delay
// sensitivities, linear+quadratic per-gate leakage terms, a box, a
// quantization ladder) governs other knobs; body bias is the first one
// landed here.  A Compiled artifact carries an ordered list of
// ActuatorBlocks instead of assuming nVar == nGrids×layers: every stage
// that walks variables — fixed-row assembly, cut construction, clamping,
// extraction, signoff — indexes through the blocks and through the
// concatenated per-gate sensitivity rows (Compiled.sensPtr/Col/Val).
//
// Block order is fixed: dose layer blocks first (offsets 0 and NG), then
// one block of per-domain body-bias voltages.  With only the dose blocks
// present every code path reduces bit-identically to the historical
// dose-only pipeline; that is locked by TestDoseOnlyRegressionLock.
package core

import (
	"errors"
	"math"

	"repro/internal/dosemap"
	"repro/internal/liberty"
	"repro/internal/tech"
)

// ActuatorBlock describes one contiguous variable block of the compiled
// formulation.
type ActuatorBlock struct {
	// Name identifies the actuator: "dose-poly", "dose-active", "bias".
	Name string
	// Off and N locate the block's variables in the concatenated layout.
	Off, N int
	// Lo, Hi are the block's box bounds (percent for dose, V for bias)
	// as compiled into the fixed rows.
	Lo, Hi float64
}

var errNoActuators = errors.New("core: no actuators enabled (dose off, bias off)")

// hasDose reports whether the dose actuator blocks are present.
func (c *Compiled) hasDose() bool { return !c.Opts.DoseOff }

// hasBias reports whether the body-bias actuator block is present.
func (c *Compiled) hasBias() bool { return c.nBias > 0 }

// Assignment is a composed solution across all actuator blocks: the
// dose maps plus the per-domain body-bias voltages (nil when the bias
// actuator is off).  Both parts are unsnapped; the signoff applies the
// timing-safe quantization of each actuator.
type Assignment struct {
	Layers dosemap.Layers
	BiasV  []float64
}

// domainBias reads the bias voltage of gate id's domain (0 when the
// gate has no domain or bias is off).
func (c *Compiled) domainBias(bias []float64, id int) float64 {
	if len(bias) == 0 || c.domainOf == nil {
		return 0
	}
	if dom := c.domainOf[id]; dom >= 0 {
		return bias[dom]
	}
	return 0
}

// biasDVth expands per-domain bias voltages to the per-gate ΔVth vector
// (V) the golden analysis consumes, applying the timing-safe ladder snap
// per domain when snap is set (rounding toward forward bias only speeds
// gates up, mirroring SnapDoseUp).
func (c *Compiled) biasDVth(bias []float64, snap bool) []float64 {
	n := len(c.domainOf)
	snapped := bias
	if snap {
		snapped = make([]float64, len(bias))
		for d, b := range bias {
			snapped[d] = liberty.SnapBiasUp(b, c.Opts.BiasHi, liberty.BiasStepV)
		}
	}
	dvth := make([]float64, n)
	for id, dom := range c.domainOf {
		if dom >= 0 {
			dvth[id] = -c.kGamma * snapped[dom]
		}
	}
	return dvth
}

// biasSnapMarginNW estimates the leakage cost of timing-safe bias
// snapping: each domain rounds up by at most one ladder step
// (liberty.BiasStepV), costing about step/2 · Σ|BetaB| in expectation — the bias analogue of
// snapLeakMargin.  The QCP subtracts it from its budget ξ.
func biasSnapMarginNW(model *Model) float64 {
	sum := 0.0
	for _, b := range model.BetaB {
		sum += math.Abs(b)
	}
	return liberty.BiasStepV / 2 * sum
}

// predict evaluates the linear timing model and the leakage model at a
// composed assignment.  The bias terms enter only when the assignment
// carries bias voltages, so a dose-only prediction never adds a +0.
func (c *Compiled) predict(asn Assignment) (mct, dleakNW float64) {
	ds := tech.DoseSensitivity
	layers := asn.Layers
	bias := len(asn.BiasV) > 0
	deltaOf := func(id int) float64 {
		v := 0.0
		if c.hasDose() {
			if gidx := c.gridOf[id]; gidx >= 0 {
				v = c.Model.A[id] * ds * layers.Poly.D[gidx]
				if c.Opts.BothLayers && layers.Active != nil {
					v += c.Model.B[id] * ds * layers.Active.D[gidx]
				}
			}
		}
		if bias {
			if dom := c.domainOf[id]; dom >= 0 {
				v += c.Model.DB[id] * asn.BiasV[dom]
			}
		}
		return v
	}
	_, mct = linearArrivalsOrder(c.Golden, c.order, deltaOf)

	n := c.Golden.In.Circ.NumGates()
	dleak := 0.0
	if c.hasDose() {
		dP := make([]float64, n)
		var dA []float64
		if c.Opts.BothLayers && layers.Active != nil {
			dA = make([]float64, n)
		}
		for id := 0; id < n; id++ {
			if g := c.gridOf[id]; g >= 0 {
				dP[id] = layers.Poly.D[g]
				if dA != nil {
					dA[id] = layers.Active.D[g]
				}
			}
		}
		dleak = c.Model.DeltaLeak(dP, dA)
	}
	if bias {
		bv := make([]float64, n)
		for id := 0; id < n; id++ {
			bv[id] = c.domainBias(asn.BiasV, id)
		}
		dleak += c.Model.DeltaLeakBias(bv)
	}
	return mct, dleak
}
