// Package liberty provides the standard-cell-library substrate: cell
// masters with drive strengths, NLDM-style delay/slew lookup tables
// characterized from the tech device model, leakage values, and the
// dose-variant grid the paper's flow characterizes libraries over
// ("21 different characterized libraries … corresponding to the 21
// different dose values", Section V).
//
// The paper's library is the Artisan TSMC 65 nm / 90 nm production
// library (36 combinational and nine sequential cell masters).  We build
// the same master count programmatically from the analytic device model
// so the downstream coefficient-fitting and optimization code sees
// identically shaped data.
package liberty

import (
	"fmt"
	"math"

	"repro/internal/tech"
)

// Master describes one standard-cell master.
type Master struct {
	// Name is the library cell name, e.g. "NAND2X2".
	Name string
	// Func is the logic function family, e.g. "NAND2".
	Func string
	// Inputs is the number of data input pins.
	Inputs int
	// Drive is the relative drive strength (X1 = 1).
	Drive float64
	// Seq marks sequential cells (flip-flops, latches).
	Seq bool
	// Area is the placement footprint in µm².
	Area float64
	// CIn is the input pin capacitance in fF (per pin).
	CIn float64
	// Setup is the setup time in ps (sequential cells only).
	Setup float64
	// Dev is the output-driver device model.
	Dev tech.Device
}

// Delay returns the propagation delay in ps at gate-length delta dL and
// gate-width delta dW (nm), threshold shift dvth (V, e.g. from body
// bias; 0 for the unbiased cell), input slew (ps) and output load (fF).
func (m *Master) Delay(dL, dW, dvth, slew, load float64) float64 {
	return m.Dev.Delay(m.Dev.Node.Lnom+dL, dW, dvth, slew, load)
}

// OutSlew returns the output transition time in ps under the same
// conditions as Delay.
func (m *Master) OutSlew(dL, dW, dvth, slew, load float64) float64 {
	return m.Dev.OutSlew(m.Dev.Node.Lnom+dL, dW, dvth, slew, load)
}

// Leakage returns the cell leakage in nW at deltas (dL, dW) in nm and
// threshold shift dvth (V).
func (m *Master) Leakage(dL, dW, dvth float64) float64 {
	return m.Dev.Leakage(m.Dev.Node.Lnom+dL, dW, dvth)
}

// Library is a characterized standard-cell library for one node.
type Library struct {
	Node    *tech.Node
	Masters []*Master
	byName  map[string]*Master
}

// funcSpec captures how a logic family scales the unit device.
type funcSpec struct {
	fn      string
	inputs  int
	rMul    float64 // series-stack resistance multiplier
	cparMul float64 // parasitic cap multiplier
	cinMul  float64 // input cap multiplier per pin
	leakMul float64 // leakage multiplier (more devices leak more)
	areaMul float64
	intrMul float64 // intrinsic delay multiplier
	wMul    float64 // transistor width multiplier vs node Wnom
	seq     bool
}

var combSpecs = []funcSpec{
	{fn: "INV", inputs: 1, rMul: 1.0, cparMul: 1.0, cinMul: 1.0, leakMul: 1.0, areaMul: 1.0, intrMul: 1.0, wMul: 1.0},
	{fn: "BUF", inputs: 1, rMul: 1.0, cparMul: 1.3, cinMul: 0.9, leakMul: 1.6, areaMul: 1.6, intrMul: 1.9, wMul: 1.0},
	{fn: "NAND2", inputs: 2, rMul: 1.25, cparMul: 1.3, cinMul: 1.1, leakMul: 1.5, areaMul: 1.5, intrMul: 1.25, wMul: 1.15},
	{fn: "NAND3", inputs: 3, rMul: 1.5, cparMul: 1.6, cinMul: 1.2, leakMul: 1.9, areaMul: 2.0, intrMul: 1.5, wMul: 1.3},
	{fn: "NAND4", inputs: 4, rMul: 1.8, cparMul: 1.9, cinMul: 1.3, leakMul: 2.3, areaMul: 2.5, intrMul: 1.8, wMul: 1.45},
	{fn: "NOR2", inputs: 2, rMul: 1.4, cparMul: 1.35, cinMul: 1.15, leakMul: 1.5, areaMul: 1.5, intrMul: 1.35, wMul: 1.35},
	{fn: "NOR3", inputs: 3, rMul: 1.8, cparMul: 1.7, cinMul: 1.3, leakMul: 1.9, areaMul: 2.1, intrMul: 1.7, wMul: 1.6},
	{fn: "AND2", inputs: 2, rMul: 1.25, cparMul: 1.5, cinMul: 1.0, leakMul: 2.0, areaMul: 2.0, intrMul: 2.1, wMul: 1.15},
	{fn: "OR2", inputs: 2, rMul: 1.4, cparMul: 1.55, cinMul: 1.05, leakMul: 2.0, areaMul: 2.0, intrMul: 2.2, wMul: 1.35},
	{fn: "AOI21", inputs: 3, rMul: 1.6, cparMul: 1.7, cinMul: 1.2, leakMul: 2.1, areaMul: 2.2, intrMul: 1.6, wMul: 1.4},
	{fn: "AOI22", inputs: 4, rMul: 1.75, cparMul: 1.9, cinMul: 1.25, leakMul: 2.5, areaMul: 2.6, intrMul: 1.75, wMul: 1.5},
	{fn: "OAI21", inputs: 3, rMul: 1.6, cparMul: 1.7, cinMul: 1.2, leakMul: 2.1, areaMul: 2.2, intrMul: 1.6, wMul: 1.4},
	{fn: "OAI22", inputs: 4, rMul: 1.75, cparMul: 1.9, cinMul: 1.25, leakMul: 2.5, areaMul: 2.6, intrMul: 1.75, wMul: 1.5},
	{fn: "XOR2", inputs: 2, rMul: 1.7, cparMul: 2.1, cinMul: 1.6, leakMul: 2.8, areaMul: 3.0, intrMul: 2.4, wMul: 1.3},
	{fn: "XNOR2", inputs: 2, rMul: 1.7, cparMul: 2.1, cinMul: 1.6, leakMul: 2.8, areaMul: 3.0, intrMul: 2.4, wMul: 1.3},
	{fn: "MUX2", inputs: 3, rMul: 1.6, cparMul: 2.0, cinMul: 1.3, leakMul: 2.6, areaMul: 2.8, intrMul: 2.0, wMul: 1.3},
}

var seqSpecs = []funcSpec{
	{fn: "DFF", inputs: 1, rMul: 1.3, cparMul: 2.2, cinMul: 1.3, leakMul: 4.0, areaMul: 5.0, intrMul: 4.5, wMul: 1.2, seq: true},
	{fn: "DFFR", inputs: 2, rMul: 1.3, cparMul: 2.3, cinMul: 1.3, leakMul: 4.5, areaMul: 5.6, intrMul: 4.7, wMul: 1.2, seq: true},
	{fn: "DFFS", inputs: 2, rMul: 1.3, cparMul: 2.3, cinMul: 1.3, leakMul: 4.5, areaMul: 5.6, intrMul: 4.7, wMul: 1.2, seq: true},
	{fn: "SDFF", inputs: 2, rMul: 1.35, cparMul: 2.5, cinMul: 1.4, leakMul: 5.0, areaMul: 6.2, intrMul: 5.0, wMul: 1.25, seq: true},
	{fn: "LATCH", inputs: 1, rMul: 1.2, cparMul: 1.8, cinMul: 1.2, leakMul: 3.0, areaMul: 3.6, intrMul: 3.0, wMul: 1.1, seq: true},
}

// drivesFor returns the drive strengths offered for a function family so
// that the library totals 36 combinational and 9 sequential masters,
// matching the paper's production-library inventory.
func drivesFor(fn string) []float64 {
	switch fn {
	case "INV":
		return []float64{1, 2, 4, 8, 16}
	case "BUF":
		return []float64{1, 2, 4, 8}
	case "NAND2", "NOR2":
		return []float64{1, 2, 4}
	case "NAND3", "NOR3", "XOR2", "XNOR2", "MUX2", "AND2", "OR2", "AOI21", "OAI21":
		return []float64{1, 2}
	case "DFF":
		return []float64{1, 2, 4}
	case "DFFR", "SDFF":
		return []float64{1, 2}
	case "DFFS", "LATCH":
		return []float64{1}
	default:
		return []float64{1}
	}
}

// New builds the characterized library for the given node.
func New(node *tech.Node) *Library {
	lib := &Library{Node: node, byName: make(map[string]*Master)}
	add := func(spec funcSpec, drive float64) {
		// Unit cell height ~ 9 tracks; area scales with drive and
		// complexity.  A 65 nm X1 inverter is about 1.0 µm².
		baseArea := 1.0 * (node.Lnom / 65) * (node.Lnom / 65)
		w := node.Wnom * spec.wMul
		if w > node.Wmax {
			w = node.Wmax
		}
		m := &Master{
			Name:   fmt.Sprintf("%sX%d", spec.fn, int(drive)),
			Func:   spec.fn,
			Inputs: spec.inputs,
			Drive:  drive,
			Seq:    spec.seq,
			Area:   baseArea * spec.areaMul * (0.6 + 0.4*drive),
			CIn:    node.Cg0 * spec.cinMul * drive,
			Dev: tech.Device{
				Node:    node,
				Drive:   drive,
				WNom:    w,
				TIntr:   3.6 * spec.intrMul * (node.Lnom / 65),
				CPar:    1.0 * spec.cparMul,
				LeakNom: node.Leak0 * spec.leakMul * spec.wMul,
			},
		}
		// The rMul stack factor raises the effective drive resistance:
		// fold it into the device by reducing effective drive.
		m.Dev.Drive = drive / spec.rMul
		m.Dev.LeakNom *= spec.rMul // keep leakage tied to device count, not Dev.Drive
		if spec.seq {
			m.Setup = 25 * (node.Lnom / 65)
		}
		lib.Masters = append(lib.Masters, m)
		lib.byName[m.Name] = m
	}
	for _, spec := range combSpecs {
		for _, d := range drivesFor(spec.fn) {
			add(spec, d)
		}
	}
	for _, spec := range seqSpecs {
		for _, d := range drivesFor(spec.fn) {
			add(spec, d)
		}
	}
	return lib
}

// ScaleLeakage multiplies every master's leakage by f.  The paper's
// testcases run through Vth/Vdd assignment before dose optimization and
// end up with very different per-cell leakage mixes; this knob lets a
// design preset reproduce its documented total without touching timing.
func (l *Library) ScaleLeakage(f float64) {
	for _, m := range l.Masters {
		m.Dev.LeakNom *= f
	}
}

// Master looks a cell master up by name.
func (l *Library) Master(name string) (*Master, bool) {
	m, ok := l.byName[name]
	return m, ok
}

// MustMaster is Master but panics on unknown names; for generator code
// where a miss is a programming error.
func (l *Library) MustMaster(name string) *Master {
	m, ok := l.byName[name]
	if !ok {
		panic(fmt.Sprintf("liberty: unknown master %q", name))
	}
	return m
}

// CombMasters returns the combinational masters.
func (l *Library) CombMasters() []*Master {
	var out []*Master
	for _, m := range l.Masters {
		if !m.Seq {
			out = append(out, m)
		}
	}
	return out
}

// SeqMasters returns the sequential masters.
func (l *Library) SeqMasters() []*Master {
	var out []*Master
	for _, m := range l.Masters {
		if m.Seq {
			out = append(out, m)
		}
	}
	return out
}

// DoseStep is the dose granularity of the characterized variant grid, in
// percent.  The paper characterizes 21 libraries from -5% to +5%.
const DoseStep = 0.5

// DoseSteps returns the 21 characterized dose values -5, -4.5, …, +5.
func DoseSteps() []float64 {
	var steps []float64
	for d := -5.0; d <= 5.0+1e-9; d += DoseStep {
		steps = append(steps, math.Round(d/DoseStep)*DoseStep)
	}
	return steps
}

// SnapDose rounds a dose percentage to the nearest characterized variant
// step, clamped to the equipment range.  This is the paper's "rounding
// step … to snap the computed gate lengths and widths to the cell
// masters" (footnote 7).
func SnapDose(d float64) float64 {
	if d < -5 {
		d = -5
	}
	if d > 5 {
		d = 5
	}
	return math.Round(d/DoseStep) * DoseStep
}

// SnapDoseUp rounds a dose percentage up to the next characterized
// variant step (clamped).  Rounding doses upward can only shorten gates,
// so a timing-feasible optimizer solution stays timing-feasible after
// snapping — at the cost of a sliver of leakage.  The golden-signoff
// path uses this "timing-safe" variant.
func SnapDoseUp(d float64) float64 {
	if d < -5 {
		d = -5
	}
	if d > 5 {
		d = 5
	}
	return math.Min(5, math.Ceil(d/DoseStep-1e-9)*DoseStep)
}

// BiasStepV is the default body-bias quantization step in V: on-chip
// bias generators deliver a small discrete ladder of well voltages, the
// bias analogue of the 21-step dose variant grid.
const BiasStepV = 0.05

// SnapBiasUp rounds a body-bias voltage up to the next ladder step
// (clamped to hi).  Rounding toward forward bias can only speed gates
// up, so a timing-feasible solution stays feasible after snapping — the
// bias analogue of SnapDoseUp, paid for in a sliver of leakage.
func SnapBiasUp(b, hi, step float64) float64 {
	if step <= 0 {
		step = BiasStepV
	}
	return math.Min(hi, math.Ceil(b/step-1e-9)*step)
}

// Table is an NLDM-style lookup table over input slew × output load for
// one master at one (dL, dW) characterization point.
type Table struct {
	Master *Master
	DL, DW float64
	// Slews (ps) and Loads (fF) are the table axes.
	Slews, Loads []float64
	// Delay[i][j] and Slew[i][j] are values at Slews[i] × Loads[j].
	Delay, Slew [][]float64
}

// DefaultSlewAxis and DefaultLoadAxis are the characterization axes
// (7×7 tables, typical for production NLDM libraries).
func DefaultSlewAxis() []float64 { return []float64{5, 15, 30, 60, 100, 160, 240} }
func DefaultLoadAxis() []float64 { return []float64{0.5, 1.5, 3, 6, 12, 24, 48} }

// CharacterizeTable builds the NLDM table of a master at (dL, dW).
func (m *Master) CharacterizeTable(dL, dW float64) *Table {
	t := &Table{Master: m, DL: dL, DW: dW, Slews: DefaultSlewAxis(), Loads: DefaultLoadAxis()}
	t.Delay = make([][]float64, len(t.Slews))
	t.Slew = make([][]float64, len(t.Slews))
	for i, s := range t.Slews {
		t.Delay[i] = make([]float64, len(t.Loads))
		t.Slew[i] = make([]float64, len(t.Loads))
		for j, c := range t.Loads {
			t.Delay[i][j] = m.Delay(dL, dW, 0, s, c)
			t.Slew[i][j] = m.OutSlew(dL, dW, 0, s, c)
		}
	}
	return t
}
