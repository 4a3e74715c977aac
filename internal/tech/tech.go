// Package tech provides the device-physics substrate for the dose-map
// co-optimization flow: per-node technology constants and analytic
// transistor delay/leakage models that stand in for SPICE simulation of
// foundry devices.
//
// The paper characterizes its models from SPICE sweeps of TSMC 65 nm and
// 90 nm devices (Figs. 3-6).  We reproduce the *shapes* those figures
// establish with a compact analytic model:
//
//   - drive resistance follows an alpha-power-law channel model, so cell
//     delay is approximately linear in gate length L and in gate width W
//     around the nominal point (Figs. 3, 4);
//   - leakage is the sum of a subthreshold component that is exponential
//     in L (via Vth roll-off) and a gate/junction component that is
//     L-independent, both proportional to W, so total leakage is
//     exponential in L and linear in W (Figs. 5, 6).
//
// The exponential constants are calibrated so that a full-range dose swing
// (±5% dose, i.e. ∓10 nm of gate length at Ds = -2 nm/%) reproduces the
// leakage and delay endpoint ratios the paper reports in Tables II and III.
package tech

import (
	"fmt"
	"math"
)

// DoseSensitivity is the CD change per percent of exposure-dose change,
// in nm/%.  Increasing dose decreases CD, so the value is negative.  The
// paper assumes the typical value -2 nm/% (Section II-C, citing [7]).
const DoseSensitivity = -2.0

// Node holds the technology constants for one process node.
//
// Units used throughout the module:
//
//	length/width  nm
//	time          ps
//	capacitance   fF
//	resistance    kΩ   (kΩ × fF = ps)
//	leakage       nW
//	voltage       V
type Node struct {
	Name string

	// Lnom is the nominal (drawn) transistor gate length in nm.
	Lnom float64
	// Wmin and Wmax bound the transistor widths used by standard cells
	// in this node, in nm.  (Section V: 65 nm cells span ~200-650 nm.)
	Wmin, Wmax float64

	// VDD is the nominal supply voltage in V.
	VDD float64
	// Vth0 is the nominal threshold voltage in V at L = Lnom.
	Vth0 float64
	// Alpha is the alpha-power-law velocity-saturation exponent.
	Alpha float64

	// VthRoll is the threshold-voltage roll-off slope dVth/dL in V/nm:
	// shortening the channel by 1 nm lowers Vth by VthRoll volts.
	VthRoll float64
	// SubSlope is n·vT, the subthreshold slope factor in V (kT/q times
	// the body-effect coefficient).
	SubSlope float64

	// SubFrac is the fraction of nominal leakage that is subthreshold
	// (exponential in L); the remaining 1-SubFrac is gate/junction
	// leakage, independent of L.  Both components scale linearly in W.
	SubFrac float64

	// DelaySlopeL is the relative cell-delay sensitivity to gate length,
	// per nm: d(delay)/delay ≈ DelaySlopeL · ΔL near L = Lnom.
	DelaySlopeL float64
	// DelayCurveL is a small quadratic correction to the delay-vs-L
	// relation, per nm².  Kept small: the paper's Fig. 3 is near-linear.
	DelayCurveL float64

	// R0 is the unit drive resistance in kΩ of a 1x device at nominal
	// L and W; stronger drives divide it down.
	R0 float64
	// Cg0 is the gate capacitance in fF of a 1x device input pin.
	Cg0 float64
	// Leak0 is the nominal leakage in nW of a 1x device at (Lnom, Wnom).
	Leak0 float64
	// Wnom is the reference transistor width in nm for a 1x device.
	Wnom float64

	// WireRPerUm and WireCPerUm are the per-µm wire resistance (kΩ) and
	// capacitance (fF) used by the placement-driven wire-delay model.
	WireRPerUm float64
	WireCPerUm float64

	// KGammaBody is the body-effect coefficient dVth/dVbs in V/V: a
	// forward body bias of b volts lowers the threshold voltage by
	// KGammaBody·b (faster, leakier), a reverse bias raises it.  Typical
	// bulk-CMOS values are 0.1-0.2.
	KGammaBody float64
}

// LeakExpK returns the exponential leakage constant k (per nm) such that
// the subthreshold leakage component scales as exp(-k·ΔL) for a gate-length
// change ΔL = L - Lnom.  It is VthRoll/SubSlope: each nm of channel-length
// reduction lowers Vth by VthRoll volts, which multiplies subthreshold
// current by exp(VthRoll/SubSlope).
func (n *Node) LeakExpK() float64 { return n.VthRoll / n.SubSlope }

// N65 returns the 65 nm technology node.
//
// Calibration targets (Table II, AES-65, full ±5% dose = ∓10 nm of L):
// leakage ratio ×2.55 at ΔL=-10 nm and ×0.624 at ΔL=+10 nm, which the
// two-component leakage model meets with SubFrac≈0.497 and k≈0.1416/nm;
// MCT swing about -12.9%/+11.4% with DelaySlopeL≈0.0125/nm plus slew
// compounding in the STA.
func N65() *Node {
	return &Node{
		Name:        "N65",
		Lnom:        65,
		Wmin:        200,
		Wmax:        650,
		VDD:         1.0,
		Vth0:        0.32,
		Alpha:       1.3,
		VthRoll:     0.00368, // V per nm; k = VthRoll/SubSlope = 0.1416/nm
		SubSlope:    0.026,
		SubFrac:     0.4965,
		DelaySlopeL: 0.0125,
		DelayCurveL: 0.00004,
		R0:          1.42,
		Cg0:         0.9,
		Leak0:       7.9,
		Wnom:        300,
		WireRPerUm:  0.004,
		WireCPerUm:  0.10,
		KGammaBody:  0.15,
	}
}

// N90 returns the 90 nm technology node.
//
// Calibration targets (Table III, AES-90): leakage ratio ×1.901 at
// ΔL=-10 nm and ×0.700 at ΔL=+10 nm (SubFrac≈0.451, k≈0.1098/nm);
// MCT swing about -11.7%/+9.9% with DelaySlopeL≈0.0105/nm.
func N90() *Node {
	return &Node{
		Name:        "N90",
		Lnom:        90,
		Wmin:        280,
		Wmax:        900,
		VDD:         1.2,
		Vth0:        0.35,
		Alpha:       1.35,
		VthRoll:     0.002854, // k = 0.10977/nm
		SubSlope:    0.026,
		SubFrac:     0.4510,
		DelaySlopeL: 0.0105,
		DelayCurveL: 0.00003,
		R0:          1.45,
		Cg0:         1.2,
		Leak0:       31.6,
		Wnom:        420,
		WireRPerUm:  0.003,
		WireCPerUm:  0.11,
		KGammaBody:  0.18,
	}
}

// ByName returns the node with the given name ("N65" or "N90").
func ByName(name string) (*Node, error) {
	switch name {
	case "N65", "65", "65nm":
		return N65(), nil
	case "N90", "90", "90nm":
		return N90(), nil
	}
	return nil, fmt.Errorf("tech: unknown node %q", name)
}

// Vth returns the threshold voltage at gate length L (nm), applying the
// linear roll-off model around Lnom.
func (n *Node) Vth(l float64) float64 {
	return n.Vth0 - n.VthRoll*(n.Lnom-l)
}

// DriveFactor returns the multiplicative change in drive resistance for a
// device at gate length L and width W relative to (Lnom, wNom), where wNom
// is the device's own nominal width in nm.  Resistance grows with L (longer
// channel, higher Vth) and shrinks with W (wider channel).
//
// The L dependence uses the calibrated linear+quadratic form rather than
// the raw alpha-power expression so that cell delay tracks the paper's
// near-linear Fig. 3 slope; the W dependence is the alpha-power-law 1/W.
func (n *Node) DriveFactor(l, w, wNom float64) float64 {
	dl := l - n.Lnom
	lf := 1 + n.DelaySlopeL*dl + n.DelayCurveL*dl*dl
	if lf < 0.05 {
		lf = 0.05
	}
	if w < 1 {
		w = 1
	}
	return lf * wNom / w
}

// LeakFactor returns the multiplicative change in leakage for a device at
// gate length L, width W and threshold shift dvth (V) relative to (Lnom,
// wNom, 0): the subthreshold component is exponential in -(L-Lnom) and,
// for dvth ≠ 0, is further multiplied by exp(-dvth/SubSlope) (forward
// bias → lower Vth → more leakage); the gate/junction component is
// constant, and both scale linearly with W.
func (n *Node) LeakFactor(l, w, wNom, dvth float64) float64 {
	k := n.LeakExpK()
	sub := n.SubFrac * math.Exp(-k*(l-n.Lnom))
	if dvth != 0 {
		sub *= math.Exp(-dvth / n.SubSlope)
	}
	gate := 1 - n.SubFrac
	return (sub + gate) * w / wNom
}

// Device models one standard-cell output driver: an equivalent pull
// resistance, intrinsic delay, parasitic output capacitance and leakage,
// all at a given (L, W) operating point.  It is the analytic stand-in for
// a SPICE-characterized cell arc.
type Device struct {
	Node *Node
	// Drive is the relative drive strength (1 for X1, 2 for X2, ...).
	Drive float64
	// WNom is the nominal transistor width in nm of this device at X1
	// scaling (total effective width is Drive·WNom).
	WNom float64
	// TIntr is the intrinsic (unloaded) delay in ps at nominal L, W.
	TIntr float64
	// CPar is the parasitic output capacitance in fF at X1.
	CPar float64
	// LeakNom is the nominal leakage in nW at X1 (scaled by Drive).
	LeakNom float64
}

// SlewDelayFraction is the fraction of the input slew that adds to cell
// delay in the linear NLDM model: delay = intrinsic + R·Cload + f·slew.
const SlewDelayFraction = 0.18

// SlewOutFactor converts the output RC product into output transition
// time: slewOut ≈ SlewOutFactor · R · (Cload + Cpar) + SlewResidual·slewIn.
const (
	SlewOutFactor = 1.9
	SlewResidual  = 0.10
)

// R returns the equivalent drive resistance in kΩ at gate length l and
// width delta dw (both nm); dw shifts the transistor width from nominal.
func (d *Device) R(l, dw float64) float64 {
	w := d.WNom + dw
	return d.Node.R0 / d.Drive * d.Node.DriveFactor(l, w, d.WNom)
}

// Delay returns the cell propagation delay in ps for input slew (ps) and
// output load (fF) at gate length l (nm), width delta dw (nm) and
// threshold shift dvth (V, e.g. from body bias).  The shift scales the
// drive (intrinsic + RC) part of the delay via the alpha-power law; the
// slew feed-through term is unchanged.  dvth = 0 skips the bias factor,
// so the unbiased device is the dvth = 0 point of this one formula.
func (d *Device) Delay(l, dw, dvth, slew, load float64) float64 {
	f := d.Node.DriveFactor(l, d.WNom+dw, d.WNom)
	drive := d.TIntr*f + d.R(l, dw)*(load+d.CPar*d.Drive)
	if dvth != 0 {
		drive *= d.Node.BiasDelayScale(l, dvth)
	}
	return drive + SlewDelayFraction*slew
}

// OutSlew returns the output transition time in ps under the same
// conditions as Delay; the bias factor scales the RC part.  It multiplies
// SlewOutFactor before R, so a biased slew keeps the operand order
// s·SlewOutFactor·R·(…) and an unbiased one SlewOutFactor·R·(…).
func (d *Device) OutSlew(l, dw, dvth, slew, load float64) float64 {
	k := SlewOutFactor
	if dvth != 0 {
		k = d.Node.BiasDelayScale(l, dvth) * SlewOutFactor
	}
	return k*d.R(l, dw)*(load+d.CPar*d.Drive) + SlewResidual*slew
}

// Leakage returns the device leakage in nW at gate length l (nm), width
// delta dw (nm) and threshold shift dvth (V).
func (d *Device) Leakage(l, dw, dvth float64) float64 {
	w := d.WNom + dw
	return d.LeakNom * d.Drive * d.Node.LeakFactor(l, w, d.WNom, dvth)
}

// BodyBiasDVth converts a body-bias voltage (V, forward positive) into a
// threshold-voltage delta in V: forward bias lowers Vth.
func (n *Node) BodyBiasDVth(bbv float64) float64 { return -n.KGammaBody * bbv }

// BiasDelayScale returns the multiplicative cell-delay change caused by a
// threshold shift dvth (V) at gate length l (nm), from the alpha-power
// law: delay ∝ 1/(VDD−Vth)^α.  It is exactly 1 at dvth = 0.  The gate
// overdrive is floored at 5% of VDD so deep reverse bias degrades
// gracefully instead of diverging.
func (n *Node) BiasDelayScale(l, dvth float64) float64 {
	ov := n.VDD - n.Vth(l)
	den := ov - dvth
	if floor := 0.05 * n.VDD; den < floor {
		den = floor
	}
	return math.Pow(ov/den, n.Alpha)
}

// DoseToLength converts a poly-layer dose delta (percent) into a gate
// length delta in nm: ΔL = Ds · dP.
func DoseToLength(dosePct float64) float64 { return DoseSensitivity * dosePct }

// DoseToWidth converts an active-layer dose delta (percent) into a gate
// width delta in nm: ΔW = Ds · dA.
func DoseToWidth(dosePct float64) float64 { return DoseSensitivity * dosePct }
