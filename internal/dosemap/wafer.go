package dosemap

import (
	"fmt"
	"math"
)

// This file holds the wafer side of the paper's stated future-work
// direction (Section VI: "extension of the dose map optimization
// methodology to minimize the delay variation of different chips across
// the wafer or the exposure field"): the step-and-scan layout and the
// radial CD fingerprint that the wafer consensus solve corrects per
// field.  It also covers the Section II-B tiling remark ("multiple
// copies of the dose map solution are tiled horizontally and
// vertically: smoothness or gradient constraints are scaled").

// Field is one exposure-field placement on the wafer.
type Field struct {
	// Col, Row index the field in the step-and-scan grid.
	Col, Row int
	// CX, CY are the field center coordinates in mm, wafer-centered.
	CX, CY float64
}

// Wafer is a step-and-scan exposure plan: identical fields tiled across
// a circular wafer.
type Wafer struct {
	// DiameterMM is the wafer diameter (300 for production wafers).
	DiameterMM float64
	// FieldW, FieldH are the exposure-field dimensions in mm.
	FieldW, FieldH float64
	// EdgeMM is the edge exclusion in mm.
	EdgeMM float64
	// Fields lists the printable fields (fully inside the exclusion).
	Fields []Field
}

// NewWafer lays out fields of the given size (mm) on a wafer, keeping
// only fields whose four corners fall inside the usable radius.
func NewWafer(diameterMM, fieldW, fieldH, edgeMM float64) (*Wafer, error) {
	if diameterMM <= 0 || fieldW <= 0 || fieldH <= 0 {
		return nil, fmt.Errorf("dosemap: bad wafer spec %g/%g/%g", diameterMM, fieldW, fieldH)
	}
	w := &Wafer{DiameterMM: diameterMM, FieldW: fieldW, FieldH: fieldH, EdgeMM: edgeMM}
	usable := diameterMM/2 - edgeMM
	nCols := int(diameterMM/fieldW) + 2
	nRows := int(diameterMM/fieldH) + 2
	for r := -nRows; r <= nRows; r++ {
		for c := -nCols; c <= nCols; c++ {
			cx := (float64(c) + 0.5) * fieldW
			cy := (float64(r) + 0.5) * fieldH
			ok := true
			for _, dx := range []float64{-fieldW / 2, fieldW / 2} {
				for _, dy := range []float64{-fieldH / 2, fieldH / 2} {
					if math.Hypot(cx+dx, cy+dy) > usable {
						ok = false
					}
				}
			}
			if ok {
				w.Fields = append(w.Fields, Field{Col: c, Row: r, CX: cx, CY: cy})
			}
		}
	}
	if len(w.Fields) == 0 {
		return nil, fmt.Errorf("dosemap: no printable fields on a %g mm wafer with %gx%g mm fields",
			diameterMM, fieldW, fieldH)
	}
	return w, nil
}

// RadialCD models the across-wafer linewidth variation (AWLV)
// fingerprint: a radial CD bias in nm as a function of the normalized
// wafer radius (track/etcher signature, footnote 1 of the paper).
type RadialCD struct {
	// Center is the CD bias at wafer center, nm.
	Center float64
	// Edge is the CD bias at the usable-radius edge, nm.
	Edge float64
	// Power shapes the profile (2 = parabolic bowl, the common case).
	Power float64
}

// At returns the CD bias in nm at wafer position (x, y) mm.
func (r RadialCD) At(w *Wafer, x, y float64) float64 {
	usable := w.DiameterMM/2 - w.EdgeMM
	t := math.Hypot(x, y) / usable
	if t > 1 {
		t = 1
	}
	p := r.Power
	if p <= 0 {
		p = 2
	}
	return r.Center + (r.Edge-r.Center)*math.Pow(t, p)
}

// FieldCD returns the mean CD bias of each field in nm under the
// fingerprint (evaluated at the field center — dose corrections are
// per-field offsets, the Dosicom "dose offset per field" actuator).
func (r RadialCD) FieldCD(w *Wafer) []float64 {
	out := make([]float64, len(w.Fields))
	for i, f := range w.Fields {
		out[i] = r.At(w, f.CX, f.CY)
	}
	return out
}

// Tile replicates an intrafield map n×m times (the Section II-B
// multiple-copies case) into one combined map, for inspection and
// boundary-smoothness checking.
func (m *Map) Tile(nx, ny int) (*Map, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("dosemap: bad tiling %dx%d", nx, ny)
	}
	g := m.Grid
	tg := Grid{G: g.G, W: g.W * float64(nx), H: g.H * float64(ny), M: g.M * ny, N: g.N * nx}
	t := NewMap(tg)
	for i := 0; i < tg.M; i++ {
		for j := 0; j < tg.N; j++ {
			t.Set(i, j, m.At(i%g.M, j%g.N))
		}
	}
	return t, nil
}

// CheckTiledSmooth verifies that the map remains smooth when copies are
// tiled side by side: in addition to the interior constraints, the seam
// pairs (last column against first column, last row against first row,
// and the corner diagonal) must satisfy δ.
func (m *Map) CheckTiledSmooth(delta float64) error {
	if err := m.CheckSmooth(delta); err != nil {
		return err
	}
	g := m.Grid
	worst := 0.0
	chk := func(a, b int) {
		if d := math.Abs(m.D[a] - m.D[b]); d > worst {
			worst = d
		}
	}
	for i := 0; i < g.M; i++ {
		chk(g.Flat(i, g.N-1), g.Flat(i, 0)) // horizontal seam
		if i+1 < g.M {
			chk(g.Flat(i, g.N-1), g.Flat(i+1, 0)) // seam diagonal
		}
	}
	for j := 0; j < g.N; j++ {
		chk(g.Flat(g.M-1, j), g.Flat(0, j)) // vertical seam
		if j+1 < g.N {
			chk(g.Flat(g.M-1, j), g.Flat(0, j+1))
		}
	}
	if worst > delta+1e-9 {
		return fmt.Errorf("dosemap: tiled seam dose difference %.4g exceeds δ=%g", worst, delta)
	}
	return nil
}
