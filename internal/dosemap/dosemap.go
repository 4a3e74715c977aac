// Package dosemap provides the dose-map and exposure-equipment substrate:
// the rectangular grid partition of the exposure field (Section II-B),
// per-grid dose deltas with equipment range and smoothness checks
// (Eqs. 3-4, 8-9), conversion of a dose map into per-cell gate-length and
// gate-width perturbations via the placement, and the DoseMapper actuator
// model — a Legendre-polynomial scan profile (Dosicom, Eq. 1) plus a
// polynomial slit profile (Unicom-XL) fitted to the optimized map.
package dosemap

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fit"
	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

// Grid is the rectangular partition R = |r_ij| of an exposure field of
// size W×H µm into M×N cells of at most G×G µm (M rows along y, N
// columns along x).
type Grid struct {
	G    float64
	W, H float64
	M, N int
}

// MaxGridCells caps the cells of one dose-map layer at the largest
// Table I preset on the paper's finest grid: JPEG-90's 1,044 µm die at
// G = 5 µm, 209² cells.  The compiled formulation allocates several
// per-cell vectors, so an uncapped grid grows with 1/G²: the same die at
// 0.1 µm would ask for 1.09e8 cells and about 0.87 GB per vector.
const MaxGridCells = 209 * 209

// NewGrid partitions a W×H field with granularity parameter G (the
// user-specified upper bound on grid width and height).  A partition
// with more than MaxGridCells cells is an error.
func NewGrid(w, h, g float64) (Grid, error) {
	if w <= 0 || h <= 0 || g <= 0 {
		return Grid{}, fmt.Errorf("dosemap: bad grid spec %gx%g / %g", w, h, g)
	}
	n, m := math.Ceil(w/g), math.Ceil(h/g)
	if !(n*m <= MaxGridCells) {
		return Grid{}, fmt.Errorf("dosemap: grid %gx%g / %g has %g cells, above the cap of %d per layer", w, h, g, n*m, MaxGridCells)
	}
	return Grid{G: g, W: w, H: h, N: int(n), M: int(m)}, nil
}

// Cells returns the number of grid cells M·N.
func (g Grid) Cells() int { return g.M * g.N }

// Index returns the (row i, column j) of the grid cell containing point
// (x, y), clamped to the field.
func (g Grid) Index(x, y float64) (i, j int) {
	j = int(x / (g.W / float64(g.N)))
	i = int(y / (g.H / float64(g.M)))
	if j < 0 {
		j = 0
	}
	if j >= g.N {
		j = g.N - 1
	}
	if i < 0 {
		i = 0
	}
	if i >= g.M {
		i = g.M - 1
	}
	return i, j
}

// Flat linearizes (i, j) row-major.
func (g Grid) Flat(i, j int) int { return i*g.N + j }

// Map is a per-grid dose-delta map for one layer, in percent.
type Map struct {
	Grid Grid
	// D holds dose deltas row-major: D[i·N+j] is grid (i, j).
	D []float64
}

// NewMap returns an all-zero map on the grid.
func NewMap(g Grid) *Map { return &Map{Grid: g, D: make([]float64, g.Cells())} }

// At returns the dose delta of cell (i, j).
func (m *Map) At(i, j int) float64 { return m.D[m.Grid.Flat(i, j)] }

// Set writes the dose delta of cell (i, j).
func (m *Map) Set(i, j int, v float64) { m.D[m.Grid.Flat(i, j)] = v }

// DoseAt returns the dose delta at µm point (x, y).
func (m *Map) DoseAt(x, y float64) float64 {
	i, j := m.Grid.Index(x, y)
	return m.At(i, j)
}

// Clone deep-copies the map.
func (m *Map) Clone() *Map {
	return &Map{Grid: m.Grid, D: append([]float64(nil), m.D...)}
}

// Snap rounds every grid dose to the nearest characterized library
// variant step (the paper's footnote-7 rounding to available cell
// masters).
func (m *Map) Snap() {
	for i := range m.D {
		m.D[i] = liberty.SnapDose(m.D[i])
	}
}

// SnapTimingSafe rounds every grid dose up to the next characterized
// step: gates only get shorter, so timing never degrades from rounding.
func (m *Map) SnapTimingSafe() {
	for i := range m.D {
		m.D[i] = liberty.SnapDoseUp(m.D[i])
	}
}

// CheckRange verifies Eq. 3 / Eq. 8: L ≤ d_ij ≤ U everywhere.
func (m *Map) CheckRange(lo, hi float64) error {
	for i, v := range m.D {
		if v < lo-1e-9 || v > hi+1e-9 {
			return fmt.Errorf("dosemap: grid %d dose %.4g outside [%g, %g]", i, v, lo, hi)
		}
	}
	return nil
}

// MaxNeighborDiff returns the largest |d_ij − d_kl| over horizontally,
// vertically and diagonally adjacent grid pairs — the left side of the
// smoothness constraints (Eq. 4 / Eq. 9).
func (m *Map) MaxNeighborDiff() float64 {
	g := m.Grid
	worst := 0.0
	chk := func(a, b int) {
		if d := math.Abs(m.D[a] - m.D[b]); d > worst {
			worst = d
		}
	}
	for i := 0; i < g.M; i++ {
		for j := 0; j < g.N; j++ {
			a := g.Flat(i, j)
			if j+1 < g.N {
				chk(a, g.Flat(i, j+1))
			}
			if i+1 < g.M {
				chk(a, g.Flat(i+1, j))
			}
			if i+1 < g.M && j+1 < g.N {
				chk(a, g.Flat(i+1, j+1))
			}
		}
	}
	return worst
}

// CheckSmooth verifies the smoothness bound δ (Eq. 4 / Eq. 9).
func (m *Map) CheckSmooth(delta float64) error {
	if d := m.MaxNeighborDiff(); d > delta+1e-9 {
		return fmt.Errorf("dosemap: neighbor dose difference %.4g exceeds δ=%g", d, delta)
	}
	return nil
}

// Legalize projects the map onto the equipment-feasible set: doses are
// clamped to [lo, hi] and neighbor differences reduced to at most delta
// by symmetric Gauss-Seidel repair sweeps.  Numerical slop from an
// iterative QP solve is tiny, so a handful of sweeps reaches exact
// feasibility; the return value is the largest remaining smoothness
// violation (0 when fully legal).
func (m *Map) Legalize(lo, hi, delta float64, sweeps int) float64 {
	for i, v := range m.D {
		if v < lo {
			m.D[i] = lo
		} else if v > hi {
			m.D[i] = hi
		}
	}
	g := m.Grid
	repair := func(a, b int) {
		d := m.D[a] - m.D[b]
		if d > delta {
			adj := (d - delta) / 2
			m.D[a] -= adj
			m.D[b] += adj
		} else if d < -delta {
			adj := (-d - delta) / 2
			m.D[a] += adj
			m.D[b] -= adj
		}
	}
	for s := 0; s < sweeps; s++ {
		if m.MaxNeighborDiff() <= delta {
			break
		}
		for i := 0; i < g.M; i++ {
			for j := 0; j < g.N; j++ {
				a := g.Flat(i, j)
				if j+1 < g.N {
					repair(a, g.Flat(i, j+1))
				}
				if i+1 < g.M {
					repair(a, g.Flat(i+1, j))
				}
				if i+1 < g.M && j+1 < g.N {
					repair(a, g.Flat(i+1, j+1))
				}
			}
		}
	}
	d := m.MaxNeighborDiff() - delta
	if d < 0 {
		return 0
	}
	return d
}

// Stats summarizes a map.
type Stats struct {
	Min, Max, Mean, RMS float64
}

// Stats returns min/max/mean/RMS of the dose deltas.
func (m *Map) Stats() Stats {
	if len(m.D) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	sum, sq := 0.0, 0.0
	for _, v := range m.D {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
		sum += v
		sq += v * v
	}
	n := float64(len(m.D))
	s.Mean = sum / n
	s.RMS = math.Sqrt(sq / n)
	return s
}

// Layers bundles the poly- and active-layer maps the co-optimization
// produces.  Active may be nil for poly-only optimization.
type Layers struct {
	Poly   *Map
	Active *Map
}

// PerGate converts the layer maps into per-gate geometry deltas (ΔL, ΔW
// in nm) using each cell's placed location.  Ports get zeros.  If snap
// is true, grid doses are first rounded to the characterized variant
// step (golden-signoff behaviour).
func (l Layers) PerGate(circ *netlist.Circuit, pl *place.Placement, snap bool) (dL, dW []float64) {
	poly := l.Poly
	active := l.Active
	if snap {
		poly = poly.Clone()
		poly.SnapTimingSafe()
		if active != nil {
			active = active.Clone()
			// Wider gates are faster: the timing-safe direction for the
			// active layer is downward dose (ΔW = Ds·dA with Ds < 0).
			for i := range active.D {
				active.D[i] = -liberty.SnapDoseUp(-active.D[i])
			}
		}
	}
	n := circ.NumGates()
	dL = make([]float64, n)
	dW = make([]float64, n)
	for _, g := range circ.Gates {
		if g.Kind != netlist.Comb && g.Kind != netlist.Seq {
			continue
		}
		x, y := pl.X[g.ID], pl.Y[g.ID]
		dL[g.ID] = tech.DoseToLength(poly.DoseAt(x, y))
		if active != nil {
			dW[g.ID] = tech.DoseToWidth(active.DoseAt(x, y))
		}
	}
	return dL, dW
}

// --- Equipment (DoseMapper actuator) model -------------------------------

// LegendreP evaluates the Legendre polynomial P_n(y) by the Bonnet
// recurrence; |y| ≤ 1 in the dose-recipe convention of Eq. 1.
func LegendreP(n int, y float64) float64 {
	switch n {
	case 0:
		return 1
	case 1:
		return y
	}
	p0, p1 := 1.0, y
	for k := 2; k <= n; k++ {
		p0, p1 = p1, ((2*float64(k)-1)*y*p1-(float64(k)-1)*p0)/float64(k)
	}
	return p1
}

// ScanProfile is a Dosicom dose recipe: Dset(y) = Σ L_n·P_n(y) with up to
// eight Legendre coefficients (Eq. 1).
type ScanProfile struct {
	Coeffs []float64 // Coeffs[n] multiplies P_n
}

// Eval evaluates the profile at normalized scan position y ∈ [-1, 1].
func (s ScanProfile) Eval(y float64) float64 {
	v := 0.0
	for n, c := range s.Coeffs {
		v += c * LegendreP(n, y)
	}
	return v
}

// SlitProfile is a Unicom-XL dose recipe: a polynomial of up to 6th
// order in the normalized slit position x ∈ [-1, 1] (ASML recommends a
// quadratic default; XT:1700i-class tools accept up to 6th order).
type SlitProfile struct {
	Coeffs []float64 // ordinary polynomial coefficients, constant first
}

// Eval evaluates the profile at normalized slit position x ∈ [-1, 1].
func (s SlitProfile) Eval(x float64) float64 { return fit.PolyEval(s.Coeffs, x) }

// Recipe is the separable actuator decomposition of a dose map:
// dose(x, y) ≈ Slit(x) + Scan(y).
type Recipe struct {
	Slit SlitProfile
	Scan ScanProfile
	// RMSResidual is the root-mean-square difference between the grid
	// map and the separable recipe, in dose percent — how much of the
	// requested map the slit/scan actuators cannot realize.
	RMSResidual float64
}

// FitRecipe fits the actuator recipe to a dose map: the slit profile
// (order ≤ slitOrder) against column means and the scan profile (up to
// nScan Legendre terms) against the row residuals.
func FitRecipe(m *Map, slitOrder, nScan int) (Recipe, error) {
	g := m.Grid
	if slitOrder < 0 || slitOrder > 6 {
		return Recipe{}, errors.New("dosemap: slit order must be 0..6")
	}
	if nScan < 1 || nScan > 8 {
		return Recipe{}, errors.New("dosemap: scan terms must be 1..8")
	}
	// Column means (slit direction = x).
	colMean := make([]float64, g.N)
	for j := 0; j < g.N; j++ {
		for i := 0; i < g.M; i++ {
			colMean[j] += m.At(i, j)
		}
		colMean[j] /= float64(g.M)
	}
	xs := make([]float64, g.N)
	for j := range xs {
		xs[j] = normPos(j, g.N)
	}
	order := slitOrder
	if order > g.N-1 {
		order = g.N - 1
	}
	slitC, err := fit.Polyfit(xs, colMean, order)
	if err != nil {
		return Recipe{}, err
	}
	slit := SlitProfile{Coeffs: slitC}

	// Row means of the residual (scan direction = y).
	rowMean := make([]float64, g.M)
	for i := 0; i < g.M; i++ {
		for j := 0; j < g.N; j++ {
			rowMean[i] += m.At(i, j) - slit.Eval(xs[j])
		}
		rowMean[i] /= float64(g.N)
	}
	terms := nScan
	if terms > g.M {
		terms = g.M
	}
	design := make([][]float64, g.M)
	for i := 0; i < g.M; i++ {
		y := normPos(i, g.M)
		row := make([]float64, terms)
		for n := 0; n < terms; n++ {
			row[n] = LegendreP(n, y)
		}
		design[i] = row
	}
	scanC, err := fit.LeastSquares(design, rowMean)
	if err != nil {
		return Recipe{}, err
	}
	scan := ScanProfile{Coeffs: scanC}

	// Residual.
	rec := Recipe{Slit: slit, Scan: scan}
	sq := 0.0
	for i := 0; i < g.M; i++ {
		y := normPos(i, g.M)
		for j := 0; j < g.N; j++ {
			x := xs[j]
			r := m.At(i, j) - (slit.Eval(x) + scan.Eval(y))
			sq += r * r
		}
	}
	rec.RMSResidual = math.Sqrt(sq / float64(g.Cells()))
	return rec, nil
}

// Render evaluates the recipe back onto a grid, producing the map the
// equipment would actually expose.
func (r Recipe) Render(g Grid) *Map {
	m := NewMap(g)
	for i := 0; i < g.M; i++ {
		y := normPos(i, g.M)
		for j := 0; j < g.N; j++ {
			x := normPos(j, g.N)
			m.Set(i, j, r.Slit.Eval(x)+r.Scan.Eval(y))
		}
	}
	return m
}

// normPos maps cell index k of n to the normalized coordinate in [-1, 1]
// at the cell center.
func normPos(k, n int) float64 {
	if n == 1 {
		return 0
	}
	return -1 + 2*(float64(k)+0.5)/float64(n)
}

// ACLVBaseline synthesizes the "original dose map … calculated to
// minimize ACLV metrics" that the flow takes as input: a map that
// cancels a radial-plus-tilt across-field CD fingerprint of the given
// amplitude (percent dose).  The result is smooth and equipment-
// realizable by construction.
func ACLVBaseline(g Grid, amplitude float64) *Map {
	m := NewMap(g)
	for i := 0; i < g.M; i++ {
		y := normPos(i, g.M)
		for j := 0; j < g.N; j++ {
			x := normPos(j, g.N)
			// Radial bowl (reticle bending / resist spin) plus a slit tilt.
			fingerprint := 0.6*(x*x+y*y-1) + 0.25*x + 0.15*y
			m.Set(i, j, -amplitude*fingerprint)
		}
	}
	return m
}
