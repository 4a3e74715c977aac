package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dosemap"
)

// TestSignoffRejectsNonFiniteActuators: a NaN or infinite bias voltage
// or dose fails the golden signoff with an error naming the bias domain
// or the dose layer and grid cell.  Before the check a NaN bias signed
// off the nominal MCT with NaN leakage, +Inf a finite Eval (the ladder
// snap clamps it) and −Inf an MCT several times nominal, all without an
// error.
func TestSignoffRejectsNonFiniteActuators(t *testing.T) {
	d, golden := smallGolden(t, 0.04)
	model, err := FitModelCtx(context.Background(), golden, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.BiasGridUm = 20
	opt.BothLayers = true
	opt = opt.normalized()
	comp, err := CompileCtx(context.Background(), golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	if comp.nBias < 2 {
		t.Fatalf("%d bias domains, want at least 2", comp.nBias)
	}
	grid, err := dosemap.NewGrid(d.Pl.ChipW, d.Pl.ChipH, opt.G)
	if err != nil {
		t.Fatal(err)
	}
	assignment := func() Assignment {
		return Assignment{
			Layers: dosemap.Layers{Poly: dosemap.NewMap(grid), Active: dosemap.NewMap(grid)},
			BiasV:  make([]float64, comp.nBias),
		}
	}
	ctx := context.Background()
	if _, err := signoff(ctx, comp, opt, assignment()); err != nil {
		t.Fatalf("finite assignment: %v", err)
	}
	last := comp.nBias - 1
	cases := []struct {
		name string
		set  func(a Assignment)
		want string
	}{
		{"bias NaN", func(a Assignment) { a.BiasV[0] = math.NaN() }, "signoff bias domain 0 holds NaN V"},
		{"bias +Inf", func(a Assignment) { a.BiasV[1] = math.Inf(1) }, "signoff bias domain 1 holds +Inf V"},
		{"bias -Inf", func(a Assignment) { a.BiasV[last] = math.Inf(-1) }, fmt.Sprintf("signoff bias domain %d holds -Inf V", last)},
		{"poly NaN", func(a Assignment) { a.Layers.Poly.D[1] = math.NaN() }, "signoff poly dose map holds NaN at grid cell (0,1)"},
		{"active -Inf", func(a Assignment) { a.Layers.Active.D[grid.N] = math.Inf(-1) }, "signoff active dose map holds -Inf at grid cell (1,0)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := assignment()
			tc.set(a)
			ev, err := signoff(ctx, comp, opt, a)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("signoff = %+v, err = %v; want an error containing %q", ev, err, tc.want)
			}
		})
	}
}
