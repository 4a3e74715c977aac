package gen

import (
	"context"
	"math"
	"slices"
	"testing"
)

func TestPresetsMatchTableI(t *testing.T) {
	cases := []struct {
		p     Preset
		cells int
		areaM float64 // mm²
	}{
		{AES65(), 16187, 0.058},
		{JPEG65(), 68286, 0.268},
		{AES90(), 21944, 0.25},
		{JPEG90(), 98555, 1.09},
	}
	for _, c := range cases {
		if c.p.Cells != c.cells {
			t.Errorf("%s: cells = %d, want %d", c.p.Name, c.p.Cells, c.cells)
		}
		area := c.p.ChipW * c.p.ChipH / 1e6
		if math.Abs(area-c.areaM) > 0.05*c.areaM {
			t.Errorf("%s: area = %.3f mm², want %.3f", c.p.Name, area, c.areaM)
		}
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("AES-90")
	if err != nil || p.Tech != "N90" {
		t.Errorf("PresetByName: %+v, %v", p, err)
	}
	if _, err := PresetByName("DES-45"); err == nil {
		t.Error("unknown preset should fail")
	}
}

func TestScaled(t *testing.T) {
	p := AES65().Scaled(0.25)
	if p.Cells != 16187/4 {
		t.Errorf("scaled cells = %d", p.Cells)
	}
	// Density (cells per area) preserved.
	d0 := float64(AES65().Cells) / (AES65().ChipW * AES65().ChipH)
	d1 := float64(p.Cells) / (p.ChipW * p.ChipH)
	if math.Abs(d1-d0) > 0.02*d0 {
		t.Errorf("density changed: %v vs %v", d1, d0)
	}
	// Bad factors are no-ops.
	if q := AES65().Scaled(0); q.Cells != AES65().Cells {
		t.Error("Scaled(0) should be a no-op")
	}
	if q := AES65().Scaled(2); q.Cells != AES65().Cells {
		t.Error("Scaled(2) should be a no-op")
	}
}

func TestGenerateSmall(t *testing.T) {
	p := AES65().Scaled(0.05) // ~800 cells
	d, err := GenerateCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Circ.Validate(); err != nil {
		t.Fatal(err)
	}
	st, err := d.Circ.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Pad-buffer insertion (endpoint retargeting) makes the exact count
	// fluctuate a few percent around the Table I target.
	if math.Abs(float64(st.Cells-p.Cells)) > 0.06*float64(p.Cells) {
		t.Errorf("cells = %d, want ≈%d", st.Cells, p.Cells)
	}
	if st.Seq == 0 {
		t.Error("no flip-flops generated")
	}
	if st.Depth < p.Depth/2 {
		t.Errorf("depth = %d, want ≥ %d", st.Depth, p.Depth/2)
	}
	// Every cell has a master and placed width.
	for _, g := range d.Circ.Gates {
		switch g.Kind {
		case 0, 1: // Comb, Seq
			if d.Masters[g.ID] == nil {
				t.Fatalf("cell %q lacks a master", g.Name)
			}
		}
	}
	// Placement legal and on-die.
	if d.Pl.OverlapCount() != 0 {
		t.Errorf("placement has %d overlaps", d.Pl.OverlapCount())
	}
	if err := d.Pl.InBounds(); err != nil {
		t.Error(err)
	}
	// Every preset keeps the adjacency invariant that Connect and
	// Disconnect maintain: each fanin edge has its matching fanout
	// entry, and each fanout its matching fanin.
	for _, p := range Presets() {
		d, err := GenerateCtx(context.Background(), p.Scaled(0.05))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, g := range d.Circ.Gates {
			for _, fi := range g.Fanins {
				if !slices.Contains(d.Circ.Gates[fi].Fanouts, g.ID) {
					t.Fatalf("%s: gate %d fanin %d lacks reciprocal fanout", p.Name, g.ID, fi)
				}
			}
			for _, fo := range g.Fanouts {
				if !slices.Contains(d.Circ.Gates[fo].Fanins, g.ID) {
					t.Fatalf("%s: gate %d fanout %d lacks reciprocal fanin", p.Name, g.ID, fo)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := AES90().Scaled(0.03)
	d1, err := GenerateCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := GenerateCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Circ.NumGates() != d2.Circ.NumGates() {
		t.Fatal("non-deterministic gate count")
	}
	for i := range d1.Circ.Gates {
		g1, g2 := d1.Circ.Gates[i], d2.Circ.Gates[i]
		if g1.Master != g2.Master || len(g1.Fanins) != len(g2.Fanins) {
			t.Fatalf("non-deterministic gate %d", i)
		}
		if d1.Pl.X[i] != d2.Pl.X[i] || d1.Pl.Y[i] != d2.Pl.Y[i] {
			t.Fatalf("non-deterministic placement at %d", i)
		}
	}
}

func TestGenerateLocality(t *testing.T) {
	// Placed netlists must have wire locality: the average net HPWL must
	// be far below the die diagonal (random placement would be ~half the
	// half-perimeter).
	p := JPEG65().Scaled(0.02)
	d, err := GenerateCtx(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	total := d.Pl.TotalHPWL()
	nets := d.Circ.NumNets()
	avg := total / float64(nets)
	halfPerim := p.ChipW + p.ChipH
	if avg > 0.35*halfPerim {
		t.Errorf("average net HPWL %.1f µm too large vs half-perimeter %.1f", avg, halfPerim)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateCtx(context.Background(), Preset{Name: "bad", Tech: "N13", Cells: 1000, Depth: 10}); err == nil {
		t.Error("unknown tech should fail")
	}
	if _, err := GenerateCtx(context.Background(), Preset{Name: "tiny", Tech: "N65", Cells: 5, Depth: 10, ChipW: 10, ChipH: 10}); err == nil {
		t.Error("tiny preset should fail")
	}
}

func TestSetMaster(t *testing.T) {
	d, err := GenerateCtx(context.Background(), AES65().Scaled(0.03))
	if err != nil {
		t.Fatal(err)
	}
	// Find a combinational gate and rebind it.
	for _, g := range d.Circ.Gates {
		if d.Masters[g.ID] != nil && !d.Masters[g.ID].Seq {
			m := d.Lib.MustMaster("INVX8")
			d.SetMaster(g.ID, m)
			if d.Masters[g.ID] != m || g.Master != "INVX8" {
				t.Error("SetMaster did not rebind")
			}
			return
		}
	}
	t.Fatal("no combinational gate found")
}
