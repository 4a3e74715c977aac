// Package core implements the paper's contribution: the design-aware
// dose-map optimization (DMopt) formulated as a quadratic program (QP:
// minimize Δleakage under a clock-period bound) and a quadratically
// constrained program (QCP: minimize clock period under a Δleakage
// bound), each on the poly layer only (gate-length modulation) or on
// poly and active layers simultaneously (length and width); plus the
// complementary dose-map-aware placement heuristic (dosePl, Appendix),
// and the end-to-end optimization flow of Figs. 7-8.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fit"
	"repro/internal/liberty"
	"repro/internal/par"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Model holds the fitted per-instance coefficients of Section II-C:
//
//	Δdelay_p   ≈ A_p·ΔL + B_p·ΔW                       (ps, nm)
//	Δleakage_p ≈ α_p·ΔL² + β_p·ΔL + γ_p·ΔW            (nW, nm)
//
// The paper calibrates (A, B) per Liberty-table entry and applies the
// entry nearest each instance's (input slew, load); we fit directly at
// each instance's analyzed operating point, which is the interpolated
// limit of the same procedure.
type Model struct {
	A, B               []float64 // per gate ID; zero for ports
	Alpha, Beta, Gamma []float64
	// MaxDelaySSR and MaxLeakSSR are the worst normalized sum of squared
	// residuals across all fitted cells — the fit-quality metric the
	// paper reports (0.0005 single-variable vs 0.0101 two-variable).
	MaxDelaySSR, MaxLeakSSR float64

	// Body-bias sensitivities, for the second actuator:
	//
	//	Δdelay_p   ≈ DB_p·b                     (ps, V of forward bias)
	//	Δleakage_p ≈ AlphaB_p·b² + BetaB_p·b    (nW, V)
	//
	// DB ≤ 0 (forward bias lowers Vth, speeding the gate up); AlphaB ≥ 0
	// and BetaB ≥ 0 (leakage is convex increasing in forward bias).
	// These live in separate arrays so the dose-only objective and cut
	// assembly never touch them — dose-only numerics stay bit-identical.
	DB, AlphaB, BetaB []float64
}

// biasVSamples is the body-bias sample lattice in V for coefficient
// fitting: liberty.BiasStepV steps spanning slightly beyond the default
// [-0.2, +0.1] box, mirroring the 21-step dose variant grid.
func biasVSamples() []float64 {
	var s []float64
	for b := -0.25; b <= 0.15+1e-9; b += liberty.BiasStepV {
		s = append(s, b)
	}
	return s
}

// doseLSamples is the ΔL sample grid in nm (the 21 characterized dose
// steps at Ds = -2 nm/%).
func doseLSamples() []float64 {
	var s []float64
	for _, d := range liberty.DoseSteps() {
		s = append(s, tech.DoseToLength(d))
	}
	return s
}

// coarse 2-D sample grid for simultaneous (ΔL, ΔW) fitting: 5×5 of the
// 21×21 characterized variants (sufficient for a 4-parameter surface and
// two orders of magnitude cheaper).
var coarseDeltas = []float64{-10, -5, 0, 5, 10}

// FitModelCtx calibrates the per-gate coefficients at the operating
// points (input slew, output load) of the golden analysis r.  If
// bothLayers is false the width terms B and γ stay zero (poly-only
// optimization).  The per-gate fits are independent (each writes only
// its own coefficient slots) and fan out across up to workers
// goroutines, with the SSR maxima reduced serially in gate order
// afterwards — the fitted model is bit-identical for every worker
// count.
func FitModelCtx(ctx context.Context, r *sta.Result, bothLayers bool, workers int) (*Model, error) {
	in := r.In
	n := in.Circ.NumGates()
	m := &Model{
		A: make([]float64, n), B: make([]float64, n),
		Alpha: make([]float64, n), Beta: make([]float64, n), Gamma: make([]float64, n),
		DB: make([]float64, n), AlphaB: make([]float64, n), BetaB: make([]float64, n),
	}
	delaySSR := make([]float64, n)
	leakSSR := make([]float64, n)
	dls := doseLSamples()
	bvs := biasVSamples()
	err := par.Do(ctx, n, workers, func(id int) error {
		master := in.Masters[id]
		if master == nil {
			return nil
		}
		slew, load := r.InSlew[id], r.Load[id]
		nomD := master.Delay(0, 0, 0, slew, load)
		nomL := master.Leakage(0, 0, 0)
		// Body-bias sensitivities are fitted unconditionally (cheap, and
		// independent of the dose-layer mode): sample the device model
		// over the bias lattice and fit the same linear-delay /
		// quadratic-leakage forms used for dose, with b in place of ΔL.
		{
			bd := make([]float64, len(bvs))
			bk := make([]float64, len(bvs))
			for i, b := range bvs {
				dvth := in.Node.BodyBiasDVth(b)
				bd[i] = master.Delay(0, 0, dvth, slew, load) - nomD
				bk[i] = master.Leakage(0, 0, dvth) - nomL
			}
			dc, err := fit.FitDelayL(bvs, bd, nomD)
			if err != nil {
				return fmt.Errorf("core: bias delay fit for gate %d: %w", id, err)
			}
			lc, err := fit.FitLeakL(bvs, bk, nomL)
			if err != nil {
				return fmt.Errorf("core: bias leakage fit for gate %d: %w", id, err)
			}
			m.DB[id] = dc.A
			m.AlphaB[id], m.BetaB[id] = lc.Alpha, lc.Beta
		}
		if !bothLayers {
			dd := make([]float64, len(dls))
			dk := make([]float64, len(dls))
			for i, dl := range dls {
				dd[i] = master.Delay(dl, 0, 0, slew, load) - nomD
				dk[i] = master.Leakage(dl, 0, 0) - nomL
			}
			dc, err := fit.FitDelayL(dls, dd, nomD)
			if err != nil {
				return fmt.Errorf("core: delay fit for gate %d: %w", id, err)
			}
			lc, err := fit.FitLeakL(dls, dk, nomL)
			if err != nil {
				return fmt.Errorf("core: leakage fit for gate %d: %w", id, err)
			}
			m.A[id] = dc.A
			m.Alpha[id], m.Beta[id] = lc.Alpha, lc.Beta
			delaySSR[id], leakSSR[id] = dc.SSR, lc.SSR
			return nil
		}
		var sdl, sdw, dd, dk []float64
		for _, dl := range coarseDeltas {
			for _, dw := range coarseDeltas {
				sdl = append(sdl, dl)
				sdw = append(sdw, dw)
				dd = append(dd, master.Delay(dl, dw, 0, slew, load)-nomD)
				dk = append(dk, master.Leakage(dl, dw, 0)-nomL)
			}
		}
		dc, err := fit.FitDelay(sdl, sdw, dd, nomD)
		if err != nil {
			return fmt.Errorf("core: delay fit for gate %d: %w", id, err)
		}
		lc, err := fit.FitLeak(sdl, sdw, dk, nomL)
		if err != nil {
			return fmt.Errorf("core: leakage fit for gate %d: %w", id, err)
		}
		m.A[id], m.B[id] = dc.A, dc.B
		m.Alpha[id], m.Beta[id], m.Gamma[id] = lc.Alpha, lc.Beta, lc.Gamma
		delaySSR[id], leakSSR[id] = dc.SSR, lc.SSR
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id := 0; id < n; id++ {
		m.MaxDelaySSR = maxf(m.MaxDelaySSR, delaySSR[id])
		m.MaxLeakSSR = maxf(m.MaxLeakSSR, leakSSR[id])
	}
	return m, nil
}

// DeltaLeak evaluates the model's total leakage change in nW for
// per-gate dose deltas dP, dA (percent, indexed by gate ID; dA nil for
// poly-only) — Eq. 2.
func (m *Model) DeltaLeak(dP, dA []float64) float64 {
	ds := tech.DoseSensitivity
	total := 0.0
	for id := range m.A {
		dl := ds * dP[id]
		total += m.Alpha[id]*dl*dl + m.Beta[id]*dl
		if dA != nil {
			total += m.Gamma[id] * ds * dA[id]
		}
	}
	return total
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// DeltaLeakBias evaluates the model's total leakage change in nW for
// per-gate forward body-bias voltages bv (V, indexed by gate ID).
func (m *Model) DeltaLeakBias(bv []float64) float64 {
	total := 0.0
	for id := range m.DB {
		b := bv[id]
		total += m.AlphaB[id]*b*b + m.BetaB[id]*b
	}
	return total
}

// Sanity validates the fitted signs: delay must grow with L (A ≥ 0),
// shrink with W (B ≤ 0); leakage curvature must be convex (α ≥ 0) with
// negative slope (β ≤ 0) and positive width sensitivity (γ ≥ 0).  For
// the body-bias terms: forward bias speeds gates up (DB ≤ 0) and leaks
// more, convexly (AlphaB ≥ 0, BetaB ≥ 0).
func (m *Model) Sanity() error {
	for id := range m.A {
		if m.A[id] < 0 || m.B[id] > 1e-9 || m.Alpha[id] < 0 || m.Beta[id] > 1e-9 || m.Gamma[id] < 0 {
			return errors.New("core: fitted coefficient sign violation")
		}
	}
	for id := range m.DB {
		if m.DB[id] > 1e-9 || m.AlphaB[id] < -1e-12 || m.BetaB[id] < -1e-9 {
			return errors.New("core: fitted bias coefficient sign violation")
		}
	}
	return nil
}
