package expt

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
)

// TestTableIVColdVsCachedCompile is the compile-cache no-interference
// proof: the full Table IV job matrix must produce bit-identical rows
// whether every job compiles its formulation cold (cache bypassed) or
// all jobs share cached Compiled artifacts — at any worker count, with
// or without telemetry.  Every float is compared by math.Float64bits.
func TestTableIVColdVsCachedCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table IV regeneration")
	}
	run := func(workers int, cold, withObs bool) ([]DMRow, *obs.Recorder) {
		c := New(WithScale(0.02), WithTopK(100), WithWorkers(workers))
		if cold {
			c.cache = nil
		}
		ctx := context.Background()
		var rec *obs.Recorder
		if withObs {
			rec = obs.New()
			ctx = obs.With(ctx, rec)
		}
		_, rows, err := c.TableIVCtx(ctx)
		if err != nil {
			t.Fatalf("workers=%d cold=%t obs=%t: %v", workers, cold, withObs, err)
		}
		return rows, rec
	}
	requireRowsEq := func(label string, a, b []DMRow) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: row counts differ: %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Design != y.Design || x.Kind != y.Kind {
				t.Fatalf("%s: row %d identity differs: %+v vs %+v", label, i, x, y)
			}
			for _, f := range []struct {
				name string
				u, v float64
			}{
				{"GridUm", x.GridUm, y.GridUm},
				{"MCTns", x.MCTns, y.MCTns},
				{"MCTImp", x.MCTImp, y.MCTImp},
				{"LeakUW", x.LeakUW, y.LeakUW},
				{"LeakImp", x.LeakImp, y.LeakImp},
			} {
				if math.Float64bits(f.u) != math.Float64bits(f.v) {
					t.Fatalf("%s: row %d (%s %s %g µm) %s differs bitwise: %v vs %v",
						label, i, x.Design, x.Kind, x.GridUm, f.name, f.u, f.v)
				}
			}
		}
	}

	cold, _ := run(1, true, false)
	cached1, rec1 := run(1, false, true)
	cached2, _ := run(2, false, false)
	cached8, rec8 := run(8, false, true)

	requireRowsEq("cold vs cached workers=1 (obs on)", cold, cached1)
	requireRowsEq("cold vs cached workers=2 (obs off)", cold, cached2)
	requireRowsEq("cold vs cached workers=8 (obs on)", cold, cached8)

	// Table IV is 24 jobs over 12 distinct (design, grid, layers) compile
	// keys: exactly 12 misses and 12 hits per cached run.
	for _, rc := range []struct {
		workers int
		rec     *obs.Recorder
	}{{1, rec1}, {8, rec8}} {
		misses := rc.rec.Counter("core/compile_misses")
		hits := rc.rec.Counter("core/compile_hits")
		if misses != 12 {
			t.Errorf("workers=%d: core/compile_misses = %d, want 12", rc.workers, misses)
		}
		if hits != 12 {
			t.Errorf("workers=%d: core/compile_hits = %d, want 12", rc.workers, hits)
		}
		if rc.rec.Counter("core/compile_ns") <= 0 {
			t.Errorf("workers=%d: core/compile_ns not recorded", rc.workers)
		}
	}
}
