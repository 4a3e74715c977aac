package liberty

import (
	"context"

	"repro/internal/par"
	"repro/internal/tech"
)

// Variant is one characterized (master, dose) point of the library
// variant grid: the NLDM table and leakage of a master at the
// gate-length delta induced by a poly-layer dose offset.
type Variant struct {
	Master *Master
	// Dose is the poly-dose offset in percent.
	Dose float64
	// DL is the induced gate-length delta in nm.
	DL float64
	// Table is the NLDM delay/slew table at (DL, 0).
	Table *Table
	// Leak is the cell leakage in nW at (DL, 0).
	Leak float64
}

// Characterize builds the NLDM tables of every master × dose variant on
// up to workers goroutines (zero selects runtime.GOMAXPROCS(0)).  The
// result is ordered master-major — variants[i*len(doses)+j] is
// masters[i] at doses[j] — independent of the worker count: each
// variant is computed in isolation, so the tables are bit-identical to
// a serial characterization.  A canceled context aborts mid-grid with
// an error wrapping context.Canceled.
func Characterize(ctx context.Context, masters []*Master, doses []float64, workers int) ([]Variant, error) {
	nd := len(doses)
	return par.Map(ctx, len(masters)*nd, workers, func(i int) (Variant, error) {
		m, dose := masters[i/nd], doses[i%nd]
		dl := tech.DoseToLength(dose)
		return Variant{
			Master: m,
			Dose:   dose,
			DL:     dl,
			Table:  m.CharacterizeTable(dl, 0),
			Leak:   m.Leakage(dl, 0, 0),
		}, nil
	})
}
