// Package place provides the placement substrate: cell coordinates on a
// row-based layout, half-perimeter wirelength (HPWL) estimation, the
// fanin∪fanout bounding boxes used by the dose-map-aware cell-swapping
// heuristic, Manhattan distances, gate pitch, and a row legalizer that
// stands in for the paper's ECO legalization step.
package place

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/netlist"
)

// Placement assigns coordinates (µm) to every gate of a circuit.
type Placement struct {
	Circ *netlist.Circuit
	// X, Y are cell-origin coordinates in µm, indexed by gate ID.
	X, Y []float64
	// Width is each cell's placed width in µm (0 for ports).
	Width []float64
	// ChipW, ChipH are the die dimensions in µm.
	ChipW, ChipH float64
	// RowHeight is the placement row pitch in µm.
	RowHeight float64
}

// New allocates an empty placement for the circuit.
func New(c *netlist.Circuit, chipW, chipH, rowHeight float64) *Placement {
	n := len(c.Gates)
	return &Placement{
		Circ:      c,
		X:         make([]float64, n),
		Y:         make([]float64, n),
		Width:     make([]float64, n),
		ChipW:     chipW,
		ChipH:     chipH,
		RowHeight: rowHeight,
	}
}

// Dist returns the Manhattan distance between two gates' origins in µm.
func (p *Placement) Dist(a, b int) float64 {
	return math.Abs(p.X[a]-p.X[b]) + math.Abs(p.Y[a]-p.Y[b])
}

// GatePitch returns the chip dimension divided by the square root of the
// cell count — the distance threshold unit of the dosePl heuristic
// (paper footnote 10).
func (p *Placement) GatePitch() float64 {
	n := p.Circ.NumCells()
	if n == 0 {
		return math.Max(p.ChipW, p.ChipH)
	}
	return math.Max(p.ChipW, p.ChipH) / math.Sqrt(float64(n))
}

// NetHPWL returns the half-perimeter wirelength in µm of the net driven
// by gate driver (the driver plus all its fanout loads).
func (p *Placement) NetHPWL(driver int) float64 {
	g := p.Circ.Gates[driver]
	if len(g.Fanouts) == 0 {
		return 0
	}
	minX, maxX := p.X[driver], p.X[driver]
	minY, maxY := p.Y[driver], p.Y[driver]
	for _, fo := range g.Fanouts {
		minX = math.Min(minX, p.X[fo])
		maxX = math.Max(maxX, p.X[fo])
		minY = math.Min(minY, p.Y[fo])
		maxY = math.Max(maxY, p.Y[fo])
	}
	return (maxX - minX) + (maxY - minY)
}

// TotalHPWL sums NetHPWL over all driving gates.
func (p *Placement) TotalHPWL() float64 {
	total := 0.0
	for id := range p.Circ.Gates {
		total += p.NetHPWL(id)
	}
	return total
}

// IncidentHPWL sums the HPWL of every net incident to the gate: its own
// output net plus each fanin net.  This is the quantity the dosePl swap
// filter re-estimates ("the four nets incident to the NAND cell").
func (p *Placement) IncidentHPWL(gate int) float64 {
	g := p.Circ.Gates[gate]
	total := p.NetHPWL(gate)
	for _, fi := range g.Fanins {
		total += p.NetHPWL(fi)
	}
	return total
}

// Box is an axis-aligned rectangle in µm.
type Box struct {
	MinX, MinY, MaxX, MaxY float64
}

// Contains reports whether the point (x, y) lies inside the box.
func (b Box) Contains(x, y float64) bool {
	return x >= b.MinX && x <= b.MaxX && y >= b.MinY && y <= b.MaxY
}

// BoundingBox returns the dosePl bounding box of a cell: the box spanning
// all its fanin cells, all its fanout cells, and the cell itself
// (Appendix A, Fig. 9).
func (p *Placement) BoundingBox(gate int) Box {
	g := p.Circ.Gates[gate]
	b := Box{MinX: p.X[gate], MaxX: p.X[gate], MinY: p.Y[gate], MaxY: p.Y[gate]}
	grow := func(id int) {
		b.MinX = math.Min(b.MinX, p.X[id])
		b.MaxX = math.Max(b.MaxX, p.X[id])
		b.MinY = math.Min(b.MinY, p.Y[id])
		b.MaxY = math.Max(b.MaxY, p.Y[id])
	}
	for _, fi := range g.Fanins {
		grow(fi)
	}
	for _, fo := range g.Fanouts {
		grow(fo)
	}
	return b
}

// Swap exchanges the positions of two gates (cell masters stay put; the
// instances trade locations).
func (p *Placement) Swap(a, b int) {
	p.X[a], p.X[b] = p.X[b], p.X[a]
	p.Y[a], p.Y[b] = p.Y[b], p.Y[a]
	p.Width[a], p.Width[b] = p.Width[b], p.Width[a]
}

// InBounds reports whether every cell lies on the die.
func (p *Placement) InBounds() error {
	for id, g := range p.Circ.Gates {
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		if p.X[id] < -1e-9 || p.X[id]+p.Width[id] > p.ChipW+1e-9 ||
			p.Y[id] < -1e-9 || p.Y[id] > p.ChipH+1e-9 {
			return fmt.Errorf("place: cell %d (%q) at (%.2f, %.2f) off-die", id, g.Name, p.X[id], p.Y[id])
		}
	}
	return nil
}

// AssignRows distributes cells to rows respecting a per-row capacity
// limit of maxUtil·ChipW, preserving the vertical ordering of the cells'
// desired y coordinates (so locality survives).  It rewrites Y to row
// positions; X is untouched.  Use before Legalize when the incoming
// y distribution may be clustered.
func (p *Placement) AssignRows(maxUtil float64) error {
	if p.RowHeight <= 0 {
		return errors.New("place: non-positive row height")
	}
	if maxUtil <= 0 || maxUtil > 1 {
		return fmt.Errorf("place: bad row utilization %v", maxUtil)
	}
	nRows := int(math.Max(1, math.Floor(p.ChipH/p.RowHeight)))
	cap := maxUtil * p.ChipW
	var cells []int
	total := 0.0
	for id, g := range p.Circ.Gates {
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		cells = append(cells, id)
		total += p.Width[id]
	}
	if total > cap*float64(nRows) {
		return fmt.Errorf("place: design width %.1f µm exceeds die capacity %.1f µm", total, cap*float64(nRows))
	}
	sort.SliceStable(cells, func(a, b int) bool { return p.Y[cells[a]] < p.Y[cells[b]] })
	// Greedy fill, but target proportional occupancy so the last rows
	// are not starved: advance rows once the running share is consumed.
	row := 0
	used := 0.0
	share := total / float64(nRows)
	for _, id := range cells {
		if used+p.Width[id] > cap || (used > share && row < nRows-1) {
			row++
			used = 0
			if row >= nRows {
				row = nRows - 1
			}
		}
		p.Y[id] = float64(row) * p.RowHeight
		used += p.Width[id]
	}
	return nil
}

// Legalize snaps every cell to the nearest row and resolves overlaps
// within each row by packing cells in x order with their placed widths,
// shifting as little as possible.  It returns the total displacement in
// µm.  This is the stand-in for the ECO legalization step the dosePl
// loop invokes after swapping.
func (p *Placement) Legalize() (displacement float64, err error) {
	if p.RowHeight <= 0 {
		return 0, errors.New("place: non-positive row height")
	}
	nRows := int(math.Max(1, math.Floor(p.ChipH/p.RowHeight)))
	rows := make([][]int, nRows)
	for id, g := range p.Circ.Gates {
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		r := int(math.Round(p.Y[id] / p.RowHeight))
		if r < 0 {
			r = 0
		}
		if r >= nRows {
			r = nRows - 1
		}
		rows[r] = append(rows[r], id)
	}
	for r, ids := range rows {
		y := float64(r) * p.RowHeight
		sort.Slice(ids, func(a, b int) bool { return p.X[ids[a]] < p.X[ids[b]] })
		// Forward pack: enforce non-overlap left to right.
		cursor := 0.0
		newX := make([]float64, len(ids))
		for i, id := range ids {
			x := p.X[id]
			if x < cursor {
				x = cursor
			}
			newX[i] = x
			cursor = x + p.Width[id]
		}
		// If the row overflows, shift the tail back left.
		if len(ids) > 0 {
			last := len(ids) - 1
			over := newX[last] + p.Width[ids[last]] - p.ChipW
			if over > 0 {
				limit := p.ChipW
				for i := last; i >= 0; i-- {
					id := ids[i]
					if newX[i]+p.Width[id] > limit {
						newX[i] = limit - p.Width[id]
					}
					if newX[i] < 0 {
						return 0, fmt.Errorf("place: row %d overflows die width", r)
					}
					limit = newX[i]
				}
			}
		}
		for i, id := range ids {
			displacement += math.Abs(p.X[id]-newX[i]) + math.Abs(p.Y[id]-y)
			p.X[id] = newX[i]
			p.Y[id] = y
		}
	}
	return displacement, nil
}

// OverlapCount returns the number of overlapping cell pairs within rows;
// zero after a successful Legalize.  Quadratic per row; intended for
// validation and tests.
func (p *Placement) OverlapCount() int {
	byRow := map[int][]int{}
	for id, g := range p.Circ.Gates {
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		r := int(math.Round(p.Y[id] / p.RowHeight))
		byRow[r] = append(byRow[r], id)
	}
	count := 0
	for _, ids := range byRow {
		sort.Slice(ids, func(a, b int) bool { return p.X[ids[a]] < p.X[ids[b]] })
		for i := 1; i < len(ids); i++ {
			prev, cur := ids[i-1], ids[i]
			if p.X[prev]+p.Width[prev] > p.X[cur]+1e-9 {
				count++
			}
		}
	}
	return count
}

// Regions partitions the placed cells into rectangular bias domains: a
// square tiling of the die with the given pitch in µm, compacted to the
// occupied tiles.  It returns a per-gate domain index (−1 for ports and
// unplaced rows) and the number of occupied domains.  Domains are
// numbered by row-major tile order, so the assignment is a pure function
// of coordinates — deterministic across worker counts and runs.  This is
// the placement-side substrate of body-bias co-optimization: all cells
// sharing a well tile share one bias voltage.
func (p *Placement) Regions(pitch float64) (regionOf []int, n int) {
	nGates := len(p.Circ.Gates)
	regionOf = make([]int, nGates)
	if pitch <= 0 {
		for id := range regionOf {
			regionOf[id] = -1
		}
		return regionOf, 0
	}
	cols := int(math.Ceil(p.ChipW / pitch))
	if cols < 1 {
		cols = 1
	}
	rows := int(math.Ceil(p.ChipH / pitch))
	if rows < 1 {
		rows = 1
	}
	tileOf := make([]int, nGates)
	occupied := make([]bool, rows*cols)
	for id, g := range p.Circ.Gates {
		tileOf[id] = -1
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		i := int(p.Y[id] / pitch)
		if i < 0 {
			i = 0
		} else if i >= rows {
			i = rows - 1
		}
		j := int(p.X[id] / pitch)
		if j < 0 {
			j = 0
		} else if j >= cols {
			j = cols - 1
		}
		t := i*cols + j
		tileOf[id] = t
		occupied[t] = true
	}
	compact := make([]int, rows*cols)
	for t := range compact {
		compact[t] = -1
		if occupied[t] {
			compact[t] = n
			n++
		}
	}
	for id := range regionOf {
		regionOf[id] = -1
		if t := tileOf[id]; t >= 0 {
			regionOf[id] = compact[t]
		}
	}
	return regionOf, n
}
