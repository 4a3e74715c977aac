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
// field.

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

// MaxWaferFields caps the fields of one wafer layout.  A wafer solve
// keeps a dose map and three signoffs per field, so its memory grows
// with 1/(field area): the production 26×33 mm layout has 64 fields,
// 10×10 mm fields on a 300 mm wafer fit (679 by area), and 0.01 mm
// fields would number about 7·10⁸.
const MaxWaferFields = 1024

// NewWafer lays out fields of the given size (mm) on a wafer, keeping
// only fields whose four corners fall inside the usable radius.  It
// refuses, before it scans any position, a layout whose usable disc has
// the area of more than MaxWaferFields fields (π·r²/(w·h), an upper
// bound on the field count), and it scans none when the field is wider
// or taller than the usable radius.  A scan then visits fewer than
// 16·MaxWaferFields positions.
func NewWafer(diameterMM, fieldW, fieldH, edgeMM float64) (*Wafer, error) {
	if !(diameterMM > 0 && fieldW > 0 && fieldH > 0) {
		return nil, fmt.Errorf("dosemap: bad wafer spec %g/%g/%g", diameterMM, fieldW, fieldH)
	}
	w := &Wafer{DiameterMM: diameterMM, FieldW: fieldW, FieldH: fieldH, EdgeMM: edgeMM}
	usable := diameterMM/2 - edgeMM
	// Every field reaches its own width and height from the wafer
	// center, so none fits a usable radius below either.
	if fieldW <= usable && fieldH <= usable {
		if n := math.Pi * usable * usable / (fieldW * fieldH); !(n <= MaxWaferFields) {
			return nil, fmt.Errorf("dosemap: a %g mm wafer with %g mm edge exclusion has room for %.0f fields of %gx%g mm, above the cap of %d fields",
				diameterMM, edgeMM, n, fieldW, fieldH, MaxWaferFields)
		}
		nCols := int(usable/fieldW) + 2
		nRows := int(usable/fieldH) + 2
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
