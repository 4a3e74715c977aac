// Signoff stage of the DMopt pipeline: golden-timing and leakage
// evaluation of an optimized actuator assignment.  The solve stages talk
// to it through one narrow interface — signoff(ctx, comp, opt, asn) —
// so the optimizer's linear model never leaks into the acceptance
// numbers.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dosemap"
	"repro/internal/liberty"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Eval is a golden-signoff snapshot.
type Eval struct {
	MCTps  float64
	LeakUW float64
}

// checkFiniteDose rejects dose layers holding NaN or ±Inf, naming the
// stage, the layer and the grid cell.  Such a dose flows into the delay
// and leakage of every cell on its grid cell, and the stage would report
// the NaN signoff as a successful run.  A nil map (no active layer)
// passes.
func checkFiniteDose(stage string, layers dosemap.Layers) error {
	for _, l := range []struct {
		name string
		m    *dosemap.Map
	}{{"poly", layers.Poly}, {"active", layers.Active}} {
		if l.m == nil {
			continue
		}
		for k, v := range l.m.D {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: %s %s dose map holds %v at grid cell (%d,%d)", stage, l.name, v, k/l.m.Grid.N, k%l.m.Grid.N)
			}
		}
	}
	return nil
}

// signoff applies a composed actuator assignment to the design and runs
// golden STA + power on it.  The bias part, when the assignment carries
// one, expands to a per-gate ΔVth perturbation via the compiled domain
// map — snapped onto the bias ladder when opt.Snap is set; a dose-only
// assignment leaves ΔVth nil, so every cell stays on the unbiased device
// model.  A NaN or infinite dose or bias voltage is an error: the golden
// analysis would otherwise sign off a NaN leakage, or a finite MCT the
// snap or the delay model made up.
func signoff(ctx context.Context, comp *Compiled, opt Options, asn Assignment) (Eval, error) {
	if err := checkFiniteDose("signoff", asn.Layers); err != nil {
		return Eval{}, err
	}
	for dom, v := range asn.BiasV {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Eval{}, fmt.Errorf("core: signoff bias domain %d holds %v V", dom, v)
		}
	}
	in := comp.Golden.In
	dL, dW := asn.Layers.PerGate(in.Circ, in.Pl, opt.Snap)
	pert := &sta.Perturb{DL: dL, DW: dW}
	if len(asn.BiasV) > 0 {
		pert.DVth = comp.biasDVth(asn.BiasV, opt.Snap)
	}
	ev, _, err := EvalPerturbCtx(ctx, in, sta.DefaultConfig(), pert)
	return ev, err
}

// nominalLeak evaluates the zero-dose leakage in µW.
func nominalLeak(golden *sta.Result) float64 {
	return power.Total(golden.In.Masters, nil, nil, nil)
}

// xiToleranceLeak returns the leakage-budget acceptance tolerance in nW
// for a design of nominal leakage nomLeakUW (the compile artifact caches
// it): one part in 10⁴ of that leakage (the solver's dose precision maps
// to roughly this much objective noise), plus a relative term for large
// explicit budgets.
func xiToleranceLeak(nomLeakUW, xiNW float64) float64 {
	return 1e-6*math.Abs(xiNW) + 1e-4*nomLeakUW*power.NWPerUW
}

// snapLeakMargin estimates the leakage the timing-safe snapping adds on
// top of the optimizer's solution: each grid dose rounds up by half a
// characterized step on average, shortening gates by |Ds|·step/2 nm, so
// the expected extra leakage is that length times Σ|β_p|.  The QCP
// subtracts this margin from its budget ξ so the golden signoff still
// lands within the requested leakage bound after rounding.
func snapLeakMargin(model *Model) float64 {
	sum := 0.0
	for _, b := range model.Beta {
		sum += math.Abs(b)
	}
	return math.Abs(tech.DoseSensitivity) * liberty.DoseStep / 2 * sum
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
