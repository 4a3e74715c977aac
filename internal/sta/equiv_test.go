package sta

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

// wide builds a design of 48 parallel inverter chains, each captured by
// a flip-flop that drives a primary output.
func wide(t *testing.T) Input {
	t.Helper()
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("wide")
	const chains, depth = 48, 4
	invs := []string{"INVX1", "INVX2", "INVX4"}
	masters := map[int]string{}
	add := func(name, master string, kind netlist.Kind) int {
		id := c.AddGate(name, master, kind).ID
		if master != "" {
			masters[id] = master
		}
		return id
	}
	for i := 0; i < chains; i++ {
		prev := add(fmt.Sprintf("pi%d", i), "", netlist.PI)
		for l := 0; l < depth; l++ {
			g := add(fmt.Sprintf("inv%d_%d", i, l), invs[(i+l)%len(invs)], netlist.Comb)
			if err := c.Connect(prev, g); err != nil {
				t.Fatal(err)
			}
			prev = g
		}
		ff := add(fmt.Sprintf("ff%d", i), "DFFX1", netlist.Seq)
		po := add(fmt.Sprintf("po%d", i), "", netlist.PO)
		if err := c.Connect(prev, ff); err != nil {
			t.Fatal(err)
		}
		if err := c.Connect(ff, po); err != nil {
			t.Fatal(err)
		}
	}
	ms := make([]*liberty.Master, c.NumGates())
	for id, name := range masters {
		ms[id] = lib.MustMaster(name)
	}
	pl := place.New(c, 400, 400, 1.4)
	for i := range pl.X {
		pl.X[i] = float64((i * 37) % 400)
		pl.Y[i] = float64((i * 13) % 400)
	}
	return Input{Circ: c, Masters: ms, Pl: pl, Node: node}
}

func sameBits(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v (not bit-identical)", name, i, a[i], b[i])
		}
	}
}

// TestAnalyzeLock pins the analysis bit for bit: one FNV-64a word over
// MCT, CritEnd and the bits of AOut, AEnd, Slew, InSlew and Load — every
// analysis output the flow reads — for the wide and mesh(7) designs,
// each nominal and under a dense DL/DW/DVth perturbation.  A rewrite of
// AnalyzeCtx that moves any arrival, slew or load by one ulp changes the
// hash.
func TestAnalyzeLock(t *testing.T) {
	const want uint64 = 0x8e67c99370c64f92
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, in := range []Input{wide(t), mesh(t, 7)} {
		n := in.Circ.NumGates()
		dl := make([]float64, n)
		dw := make([]float64, n)
		dvth := make([]float64, n)
		for i := 0; i < n; i++ {
			dl[i] = -10 + float64(i%21)
			dw[i] = -5 + float64(i%11)
			dvth[i] = -0.04 + 0.01*float64(i%9)
		}
		for _, pert := range []*Perturb{nil, {DL: dl, DW: dw, DVth: dvth}} {
			r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), pert)
			if err != nil {
				t.Fatal(err)
			}
			w64(math.Float64bits(r.MCT))
			w64(uint64(r.CritEnd))
			for _, v := range [][]float64{r.AOut, r.AEnd, r.Slew, r.InSlew, r.Load} {
				for _, x := range v {
					w64(math.Float64bits(x))
				}
			}
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("analysis hash %#016x, want %#016x", got, want)
	}
}

// TestAnalyzeCtxCanceled asserts cancellation surfaces as a wrapped
// context.Canceled before any gate is evaluated.
func TestAnalyzeCtxCanceled(t *testing.T) {
	in := wide(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeCtx(ctx, in, DefaultConfig(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
}
