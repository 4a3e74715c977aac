// Package sta provides the static-timing-analysis substrate standing in
// for the paper's golden signoff tool (Synopsys PrimeTime): block-based
// arrival analysis with slew propagation, a placement-driven wire-delay
// model, minimum-cycle-time extraction, and exact top-K critical-path
// enumeration (the paper extracts the top 10 000 paths to drive the
// dosePl heuristic).
//
// Timing conventions (all times in ps):
//
//   - primary inputs launch at t = 0 with a configured input slew;
//   - flip-flops launch at their clock-to-q delay and capture at their
//     data input with a setup margin;
//   - the minimum cycle time (MCT) is the largest endpoint arrival, i.e.
//     the smallest clock period at which every endpoint meets setup.
package sta

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/place"
	"repro/internal/tech"
)

// Input bundles the design views STA needs.
type Input struct {
	Circ    *netlist.Circuit
	Masters []*liberty.Master // per gate ID; nil for ports
	Pl      *place.Placement
	Node    *tech.Node
}

// Perturb carries per-gate dose-induced geometry deltas in nm and
// body-bias-induced threshold shifts in V.  Nil slices mean zero
// everywhere.  The cell models take ΔVth as an argument, and ΔVth = 0 —
// a nil DVth, or a gate outside every bias domain — skips only their
// bias factor, so a dose-only analysis is the ΔVth = 0 point of the one
// device model.
type Perturb struct {
	DL   []float64 // gate-length delta per gate ID
	DW   []float64 // gate-width delta per gate ID
	DVth []float64 // threshold-voltage delta per gate ID (V)
}

func (p *Perturb) dl(id int) float64 {
	if p == nil || p.DL == nil {
		return 0
	}
	return p.DL[id]
}

func (p *Perturb) dw(id int) float64 {
	if p == nil || p.DW == nil {
		return 0
	}
	return p.DW[id]
}

func (p *Perturb) dvth(id int) float64 {
	if p == nil || p.DVth == nil {
		return 0
	}
	return p.DVth[id]
}

// Config holds boundary-condition knobs.
type Config struct {
	// InputSlew is the transition time in ps at primary inputs.
	InputSlew float64
	// ClockSlew is the transition time in ps at flip-flop clock pins.
	ClockSlew float64
	// POLoad is the capacitive load in fF at primary outputs.
	POLoad float64
	// SlewWireFactor converts wire delay into added input slew.
	SlewWireFactor float64
	// Workers is ignored: the analysis is one serial pass.
	//
	// Deprecated: nothing reads Workers; it is kept so that code which
	// still sets it compiles.
	Workers int
}

// DefaultConfig returns the boundary conditions used across the flow.
func DefaultConfig() Config {
	return Config{InputSlew: 20, ClockSlew: 25, POLoad: 4, SlewWireFactor: 0.5}
}

// Result is a full timing analysis of one design state.
type Result struct {
	In   Input
	Cfg  Config
	Pert *Perturb

	// AOut is the arrival time at each gate's output: launch time for
	// startpoints, propagated arrival for combinational gates, data-pin
	// arrival for POs.
	AOut []float64
	// AEnd is the endpoint arrival (data arrival plus setup for FFs,
	// AOut for POs); NaN for non-endpoints.
	AEnd []float64
	// Slew is the output transition time at each gate.
	Slew []float64
	// InSlew is the input transition time of each gate's worst arc
	// (wire-degraded); boundary slew for startpoints.  The coefficient
	// fitting evaluates cell delays at this operating point.
	InSlew []float64
	// Load is the total capacitive load in fF at each gate's output.
	Load []float64
	// MCT is the minimum cycle time in ps.
	MCT float64
	// CritEnd is the endpoint gate ID achieving MCT.
	CritEnd int

	order []int
}

// WireDelay returns the interconnect delay in ps of the arc from gate
// from to gate to, using a distance-based Elmore-style model on the
// placed locations.
func (in Input) WireDelay(from, to int) float64 {
	d := in.Pl.Dist(from, to)
	r := in.Node.WireRPerUm * d
	c := in.Node.WireCPerUm * d
	return 0.5 * r * c
}

// netLoad returns the capacitive load at gate id's output: wire cap of
// the net (HPWL-based) plus the input pin caps of all fanouts.
func (in Input) netLoad(id int, cfg Config) float64 {
	g := in.Circ.Gates[id]
	load := in.Node.WireCPerUm * in.Pl.NetHPWL(id)
	for _, fo := range g.Fanouts {
		fog := in.Circ.Gates[fo]
		switch fog.Kind {
		case netlist.PO:
			load += cfg.POLoad
		default:
			if m := in.Masters[fo]; m != nil {
				load += m.CIn
			}
		}
	}
	return load
}

// AnalyzeCtx performs a full timing analysis.  A context canceled
// before the analysis starts fails it with an error that wraps
// context.Canceled.
// Once started, the analysis runs to completion.
//
// The analysis is one serial walk of the topological order.  Loads and
// flip-flop launches come first, then arrivals in topological order,
// then the MCT scan over the endpoints.
func AnalyzeCtx(ctx context.Context, in Input, cfg Config, pert *Perturb) (*Result, error) {
	n := in.Circ.NumGates()
	if n == 0 {
		return nil, errors.New("sta: empty circuit")
	}
	if len(in.Masters) != n {
		return nil, fmt.Errorf("sta: %d masters for %d gates", len(in.Masters), n)
	}
	order, err := in.Circ.TopoOrder()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("sta: canceled: %w", err)
	}
	r := &Result{
		In: in, Cfg: cfg, Pert: pert,
		AOut:   make([]float64, n),
		AEnd:   make([]float64, n),
		Slew:   make([]float64, n),
		InSlew: make([]float64, n),
		Load:   make([]float64, n),
		order:  order,
	}
	for i := range r.AEnd {
		r.AEnd[i] = math.NaN()
	}

	// Loads first (they depend only on placement and fanout pins), then
	// each flip-flop's launch from its own load.  The topological order
	// does not constrain a flip-flop to precede its fanouts (edges out
	// of registers cut the timing graph), so fanouts may be visited
	// first and must already see the launch arrival.
	seqs := 0
	for id := range n {
		r.Load[id] = in.netLoad(id, cfg)
		if in.Circ.Gates[id].Kind != netlist.Seq {
			continue
		}
		m := in.Masters[id]
		r.AOut[id] = m.Delay(pert.dl(id), pert.dw(id), pert.dvth(id), cfg.ClockSlew, r.Load[id])
		r.Slew[id] = m.OutSlew(pert.dl(id), pert.dw(id), pert.dvth(id), cfg.ClockSlew, r.Load[id])
		r.InSlew[id] = cfg.ClockSlew
		seqs++
	}

	// Forward pass: a gate reads only its fanins' arrival/slew, and each
	// fanin either precedes it in topological order or is a flip-flop
	// whose launch is already set.
	for _, id := range order {
		forwardGate(r, in, cfg, pert, id)
	}

	// MCT = max endpoint arrival.
	r.MCT = 0
	r.CritEnd = -1
	for id, a := range r.AEnd {
		if !math.IsNaN(a) && a > r.MCT {
			r.MCT = a
			r.CritEnd = id
		}
	}

	if rec := obs.From(ctx); rec != nil {
		rec.Add("sta/analyses", 1)
		rec.Add("sta/analyze_gate_evals", int64(2*n+seqs))
	}
	return r, nil
}

// forwardGate computes the arrival/slew of one gate from its fanins.
func forwardGate(r *Result, in Input, cfg Config, pert *Perturb, id int) {
	g := in.Circ.Gates[id]
	switch g.Kind {
	case netlist.PI:
		r.AOut[id] = 0
		r.Slew[id] = cfg.InputSlew
		r.InSlew[id] = cfg.InputSlew
	case netlist.Seq:
		// Capture: data arrival plus setup (endpoint); the launch side
		// was precomputed before the forward pass.
		r.AEnd[id] = dataArrival(r, in, id) + in.Masters[id].Setup
	case netlist.Comb:
		m := in.Masters[id]
		best := math.Inf(-1)
		var bestSlew, bestIn float64
		for _, fi := range g.Fanins {
			wd := in.WireDelay(fi, id)
			slewIn := r.Slew[fi] + cfg.SlewWireFactor*wd
			d := m.Delay(pert.dl(id), pert.dw(id), pert.dvth(id), slewIn, r.Load[id])
			if a := r.AOut[fi] + wd + d; a > best {
				best = a
				bestSlew = m.OutSlew(pert.dl(id), pert.dw(id), pert.dvth(id), slewIn, r.Load[id])
				bestIn = slewIn
			}
		}
		if math.IsInf(best, -1) {
			best = 0
			bestSlew = cfg.InputSlew
			bestIn = cfg.InputSlew
		}
		r.AOut[id] = best
		r.Slew[id] = bestSlew
		r.InSlew[id] = bestIn
	case netlist.PO:
		arr := dataArrival(r, in, id)
		r.AOut[id] = arr
		r.AEnd[id] = arr
		r.Slew[id] = cfg.InputSlew
	}
}

func dataArrival(r *Result, in Input, id int) float64 {
	g := in.Circ.Gates[id]
	best := 0.0
	for _, fi := range g.Fanins {
		wd := in.WireDelay(fi, id)
		if a := r.AOut[fi] + wd; a > best {
			best = a
		}
	}
	return best
}

// ArcDelay returns the frozen arc delay from gate from into gate to as
// used by the analysis: wire delay plus the receiving cell's delay under
// the analyzed slews and loads (zero cell delay into POs and FF D pins).
func (r *Result) ArcDelay(from, to int) float64 {
	in := r.In
	g := in.Circ.Gates[to]
	wd := in.WireDelay(from, to)
	switch g.Kind {
	case netlist.PO, netlist.Seq:
		return wd
	case netlist.Comb:
		m := in.Masters[to]
		slewIn := r.Slew[from] + r.Cfg.SlewWireFactor*wd
		return wd + m.Delay(r.Pert.dl(to), r.Pert.dw(to), r.Pert.dvth(to), slewIn, r.Load[to])
	}
	return wd
}

// EndWeight returns the terminal weight of an endpoint (setup for FFs).
func (r *Result) EndWeight(id int) float64 {
	g := r.In.Circ.Gates[id]
	if g.Kind == netlist.Seq {
		return r.In.Masters[id].Setup
	}
	return 0
}

// StartWeight returns the launch weight of a startpoint (clock-to-q for
// FFs, zero for PIs).
func (r *Result) StartWeight(id int) float64 {
	g := r.In.Circ.Gates[id]
	if g.Kind == netlist.Seq {
		return r.AOut[id] // clk-to-q as computed in the forward pass
	}
	return 0
}
