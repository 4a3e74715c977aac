// Package netlist provides the circuit-graph substrate: gate-level
// netlists with combinational timing-graph views, topological ordering,
// and the fictitious source/sink convention of the paper (Section II-C:
// "Nodes are indexed by a reverse topological ordering of the circuit
// graph, with the source and sink nodes indexed as n+1 and 0").
//
// Sequential circuits are handled the way the paper prescribes: flip-flop
// outputs act as timing start points (like primary inputs) and flip-flop
// data inputs act as timing end points (like primary outputs), which
// "unrolls" the design into a combinational graph.
package netlist

import (
	"errors"
	"fmt"
	"sync"
)

// Kind classifies a node in the netlist.
type Kind uint8

const (
	// Comb is a combinational standard cell instance.
	Comb Kind = iota
	// Seq is a sequential cell (flip-flop): a timing end point at its
	// D input and a timing start point at its Q output.
	Seq
	// PI is a primary input port.
	PI
	// PO is a primary output port.
	PO
)

func (k Kind) String() string {
	switch k {
	case Comb:
		return "comb"
	case Seq:
		return "seq"
	case PI:
		return "pi"
	case PO:
		return "po"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Gate is one node of the netlist.  Every gate has a single output net;
// the net is identified with the driving gate's index.
type Gate struct {
	// ID is the gate's index in Circuit.Gates.
	ID int
	// Name is the instance name.
	Name string
	// Master names the standard-cell master implementing this gate
	// (resolved by the liberty package); empty for ports.
	Master string
	// Kind classifies the node.
	Kind Kind
	// Fanins lists driver gate IDs, one per input pin, in pin order.
	Fanins []int
	// Fanouts lists the gate IDs whose inputs this gate's output drives.
	Fanouts []int
}

// Circuit is a gate-level netlist.  Once construction is complete the
// circuit is safe for concurrent readers: the lazily computed caches
// are guarded internally.  Mutations (AddGate, Connect, Disconnect)
// must not race with readers.
type Circuit struct {
	Name  string
	Gates []*Gate

	topoMu sync.Mutex
	topo   []int // cached forward topological order
	levels []int // cached logic levels (same guard and invalidation)
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name}
}

// AddGate appends a gate of the given kind and master and returns it.
// Connectivity is added later via Connect.
func (c *Circuit) AddGate(name, master string, kind Kind) *Gate {
	g := &Gate{ID: len(c.Gates), Name: name, Master: master, Kind: kind}
	c.Gates = append(c.Gates, g)
	c.topo, c.levels = nil, nil
	return g
}

// Connect wires the output of gate from into an input pin of gate to.
func (c *Circuit) Connect(from, to int) error {
	if from < 0 || from >= len(c.Gates) || to < 0 || to >= len(c.Gates) {
		return fmt.Errorf("netlist: connect %d→%d out of range (n=%d)", from, to, len(c.Gates))
	}
	if from == to {
		return fmt.Errorf("netlist: self-loop on gate %d", from)
	}
	f, t := c.Gates[from], c.Gates[to]
	if f.Kind == PO {
		return fmt.Errorf("netlist: primary output %q cannot drive", f.Name)
	}
	if t.Kind == PI {
		return fmt.Errorf("netlist: primary input %q cannot be driven", t.Name)
	}
	f.Fanouts = append(f.Fanouts, to)
	t.Fanins = append(t.Fanins, from)
	c.topo, c.levels = nil, nil
	return nil
}

// Disconnect removes one instance of the edge from→to (the first match
// in each adjacency list).  It reports whether an edge was removed.
func (c *Circuit) Disconnect(from, to int) bool {
	if from < 0 || from >= len(c.Gates) || to < 0 || to >= len(c.Gates) {
		return false
	}
	f, t := c.Gates[from], c.Gates[to]
	removed := false
	for i, fo := range f.Fanouts {
		if fo == to {
			f.Fanouts = append(f.Fanouts[:i], f.Fanouts[i+1:]...)
			removed = true
			break
		}
	}
	if !removed {
		return false
	}
	for i, fi := range t.Fanins {
		if fi == from {
			t.Fanins = append(t.Fanins[:i], t.Fanins[i+1:]...)
			break
		}
	}
	c.topo, c.levels = nil, nil
	return true
}

// NumGates returns the total node count including ports.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumCells returns the number of standard-cell instances (combinational
// plus sequential), the quantity Table I reports as "#Cell Instances".
func (c *Circuit) NumCells() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == Comb || g.Kind == Seq {
			n++
		}
	}
	return n
}

// NumNets returns the number of nets: one per driving node (cells and
// primary inputs) that has at least one fanout, matching Table I's
// "#Nets" accounting where each PI port and each cell output is a net.
func (c *Circuit) NumNets() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind != PO && len(g.Fanouts) > 0 {
			n++
		}
	}
	return n
}

// timingEdgeBlocked reports whether the timing arc from gate f into gate
// t is cut for combinational analysis: arcs into a flip-flop D pin end a
// path, and arcs out of a flip-flop Q pin begin one, so neither blocks
// traversal; the cut happens *inside* the flip-flop (no D→Q arc).
// In graph terms: edges are traversed unless the source is Seq — those
// edges still exist but start a new path segment.  For ordering purposes
// no edge is blocked; cycles through flip-flops are legal.
func timingEdgeBlocked(f *Gate) bool { return f.Kind == Seq }

// TopoOrder returns a forward topological order over the combinational
// timing graph (edges out of flip-flops are treated as sources, so
// sequential loops do not prevent ordering).  It returns an error if the
// combinational logic itself contains a cycle.
func (c *Circuit) TopoOrder() ([]int, error) {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.topo != nil {
		return c.topo, nil
	}
	n := len(c.Gates)
	indeg := make([]int, n)
	// Count indegrees over timing edges: an edge f→t contributes unless
	// f is sequential (FF outputs are start points).
	for _, g := range c.Gates {
		for _, fi := range g.Fanins {
			if !timingEdgeBlocked(c.Gates[fi]) {
				indeg[g.ID]++
			}
		}
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		if timingEdgeBlocked(c.Gates[v]) {
			continue // successors were never blocked on v
		}
		for _, w := range c.Gates[v].Fanouts {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("netlist: combinational cycle detected")
	}
	c.topo = order
	return order, nil
}

// StartPoints returns the timing start points: primary inputs and
// flip-flop outputs.
func (c *Circuit) StartPoints() []int {
	var s []int
	for _, g := range c.Gates {
		if g.Kind == PI || g.Kind == Seq {
			s = append(s, g.ID)
		}
	}
	return s
}

// Levelize returns, for each gate, its logic level: the length of the
// longest combinational path (in gate count) from any start point.
// The result is cached and shared; callers must not mutate it.
func (c *Circuit) Levelize() ([]int, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	if c.levels != nil {
		return c.levels, nil
	}
	level := make([]int, len(c.Gates))
	for _, id := range order {
		g := c.Gates[id]
		for _, fi := range g.Fanins {
			if timingEdgeBlocked(c.Gates[fi]) {
				continue
			}
			if l := level[fi] + 1; l > level[id] {
				level[id] = l
			}
		}
	}
	c.levels = level
	return level, nil
}

// MaxLevel returns the maximum logic level (combinational depth).
func (c *Circuit) MaxLevel() (int, error) {
	levels, err := c.Levelize()
	if err != nil {
		return 0, err
	}
	m := 0
	for _, l := range levels {
		if l > m {
			m = l
		}
	}
	return m, nil
}

// Validate performs structural checks: connectivity ranges, port
// conventions, dangling combinational gates, and acyclicity.
func (c *Circuit) Validate() error {
	for _, g := range c.Gates {
		switch g.Kind {
		case PI:
			if len(g.Fanins) != 0 {
				return fmt.Errorf("netlist: PI %q has fanins", g.Name)
			}
		case PO:
			if len(g.Fanins) != 1 {
				return fmt.Errorf("netlist: PO %q has %d fanins, want 1", g.Name, len(g.Fanins))
			}
			if len(g.Fanouts) != 0 {
				return fmt.Errorf("netlist: PO %q has fanouts", g.Name)
			}
		case Comb:
			if len(g.Fanins) == 0 {
				return fmt.Errorf("netlist: combinational gate %q has no fanins", g.Name)
			}
			if g.Master == "" {
				return fmt.Errorf("netlist: combinational gate %q has no master", g.Name)
			}
		case Seq:
			if g.Master == "" {
				return fmt.Errorf("netlist: sequential gate %q has no master", g.Name)
			}
		}
		for _, fi := range g.Fanins {
			if fi < 0 || fi >= len(c.Gates) {
				return fmt.Errorf("netlist: gate %q fanin %d out of range", g.Name, fi)
			}
		}
		for _, fo := range g.Fanouts {
			if fo < 0 || fo >= len(c.Gates) {
				return fmt.Errorf("netlist: gate %q fanout %d out of range", g.Name, fo)
			}
		}
	}
	_, err := c.TopoOrder()
	return err
}

// Stats summarizes the circuit the way the paper's Table I does.
type Stats struct {
	Name     string
	Cells    int
	Nets     int
	Seq      int
	PIs, POs int
	Depth    int
}

// Stats computes summary statistics.
func (c *Circuit) Stats() (Stats, error) {
	depth, err := c.MaxLevel()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{Name: c.Name, Cells: c.NumCells(), Nets: c.NumNets(), Depth: depth}
	for _, g := range c.Gates {
		switch g.Kind {
		case Seq:
			s.Seq++
		case PI:
			s.PIs++
		case PO:
			s.POs++
		}
	}
	return s, nil
}
