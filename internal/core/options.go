// Run-request types of the DMopt pipeline: Options parameterize one
// solve (clock-period target, leakage budget, solver budgets),
// while the design-invariant subset — grid geometry, dose range,
// smoothness, layers — is split off by Options.CompileOptions into the
// compile stage (see compile.go).
package core

import (
	"time"

	"repro/internal/dosemap"
	"repro/internal/qp"
)

// Options configures a DMopt run.
type Options struct {
	// G is the grid granularity in µm (Section II-B; the paper sweeps
	// 5, 10, 30 and 50 µm).
	G float64
	// Delta is the dose smoothness bound δ in percent (Eq. 4/9).
	Delta float64
	// DoseLo, DoseHi are the equipment correction range L, U in percent
	// (Eq. 3/8; ±5% for DoseMapper).
	DoseLo, DoseHi float64
	// BothLayers enables simultaneous poly+active optimization
	// (Section III-B); otherwise poly-only (Section III-A).
	BothLayers bool
	// XiNW is the Δleakage budget ξ in nW for the QCP (Eq. 7/12).
	XiNW float64
	// Snap rounds grid doses to the characterized library steps before
	// golden signoff (footnote 7).
	Snap bool
	// SeedTau warm-brackets the QCP bisection: a clock period (ps) that a
	// related run — the previous table row or sweep point — found
	// feasible.  When it falls inside the fresh [lo, hi] interval the
	// bisection probes a tight bracket around it first instead of
	// halving from scratch; a stale seed costs at most two probes and
	// still narrows the interval.  Zero disables the hint.
	SeedTau float64
	// Workers bounds the fan-out across independent units of work: the
	// per-gate model fit and the fields and column groups of a wafer
	// solve.  A QP/QCP solve and every STA analysis run on one
	// goroutine.  Zero selects runtime.GOMAXPROCS(0).  Results are
	// bit-identical for every worker count.
	Workers int

	// Actuator selection.  The zero values reproduce the dose-only
	// pipeline bit-for-bit.
	//
	// DoseOff removes the dose-map actuator (bias-only mode); it is an
	// error to disable dose without enabling bias.
	DoseOff bool
	// BiasGridUm enables the body-bias actuator when > 0: the pitch in
	// µm of the square bias-domain tiling of the die (all cells in one
	// tile share a well voltage).
	BiasGridUm float64
	// BiasLo, BiasHi bound the per-domain body-bias voltage in V
	// (forward positive).  Both zero selects the default [-0.2, +0.1]
	// box when bias is enabled.
	BiasLo, BiasHi float64
}

// useBias reports whether the body-bias actuator is active.
func (o Options) useBias() bool { return o.BiasGridUm > 0 }

// normalized fills in the default body-bias box when bias is enabled
// without one.
func (o Options) normalized() Options {
	if o.useBias() {
		if o.BiasLo == 0 && o.BiasHi == 0 {
			o.BiasLo, o.BiasHi = DefaultBiasLo, DefaultBiasHi
		}
	}
	return o
}

// Default body-bias box in V: reverse bias down to -0.2 V (leakage
// recovery) and forward bias up to +0.1 V (timing rescue), the range
// over which the quadratic leakage fit tracks the exponential device
// model tightly.
const (
	DefaultBiasLo = -0.2
	DefaultBiasHi = 0.1
)

// DefaultOptions returns the paper's main configuration: 5 µm grids,
// δ = 2, ±5% dose range, poly-only, ξ = 0 (no leakage increase allowed).
func DefaultOptions() Options {
	return Options{
		G:      5,
		Delta:  2,
		DoseLo: -5,
		DoseHi: 5,
		XiNW:   0,
		Snap:   true,
	}
}

// The cut engine's inner ADMM budget.  The outer cut-generation loop
// supplies the real convergence test (model MCT against τ), so the inner
// solves run on a modest budget; this is ~15x faster than solving every
// QP to 1e-4 with no measurable change in the optimized dose maps.
const (
	cutMaxIter = 1500
	cutEps     = 3e-4
)

// cutQPSettings returns the qp settings of every cut-engine solve.
func cutQPSettings() qp.Settings {
	set := qp.DefaultSettings()
	set.MaxIter = cutMaxIter
	set.EpsAbs, set.EpsRel = cutEps, cutEps
	return set
}

// Result is the outcome of a DMopt run.
type Result struct {
	// Layers holds the optimized dose maps (Active nil for poly-only).
	Layers dosemap.Layers
	// PredMCT is the linear-model minimum cycle time under the solution.
	PredMCT float64
	// PredDeltaLeakNW is the model Δleakage of the solution (Eq. 2).
	PredDeltaLeakNW float64
	// Nominal and Golden are signoff snapshots before and after.
	Nominal, Golden Eval
	// Probes counts QCP bisection iterations (1 for the plain QP).
	Probes int
	// Rows is the final cut-pool size and Cols the variable count.
	Rows, Cols int
	// BiasV holds the optimized per-domain body-bias voltages in V
	// (unsnapped, like Layers holds unsnapped doses); nil when the bias
	// actuator is off.  BiasDomains is its length.
	BiasV       []float64
	BiasDomains int
	// Status reports the final solver status.
	Status string
	// Runtime is the wall-clock optimization time.
	Runtime time.Duration
}
