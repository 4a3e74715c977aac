package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sta"
)

// signatureOracle is the cut pool's original dedup signature: the
// nominal delay at 0.01 ps and each coefficient at 10⁻⁴, as text.
func signatureOracle(c cut) string {
	s := fmt.Sprintf("%.2f|", c.nom)
	for i := range c.cols {
		s += fmt.Sprintf("%d:%.4f;", c.cols[i], c.vals[i])
	}
	return s
}

// makeCutMapOracle is the original map-accumulating makeCut.
func makeCutMapOracle(cs *cutSolver, p *sta.Path, x []float64) cut {
	c := cs.comp
	coeff := map[int]float64{}
	for i, id := range p.Nodes {
		s, e := c.sensPtr[id], c.sensPtr[id+1]
		if s == e {
			continue
		}
		kind := c.Golden.In.Circ.Gates[id].Kind
		isLaunch := i == 0 && kind == netlist.Seq
		if kind == netlist.Comb || isLaunch {
			for k := s; k < e; k++ {
				coeff[c.sensCol[k]] += c.sensVal[k]
			}
		}
	}
	cols := make([]int, 0, len(coeff))
	for col := range coeff {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	out := cut{}
	lin := 0.0
	for _, col := range cols {
		v := coeff[col]
		out.cols = append(out.cols, col)
		out.vals = append(out.vals, v)
		lin += v * x[col]
	}
	out.nom = p.Delay - lin
	return out
}

// fixedKeyValues returns values that probe every branch of appendFixed
// at p decimal places: random magnitudes, the exact decimal ties
// (odd multiples of 1/8 at 2 places, of 1/32 at 4) with their float
// neighbours, k/10ᵖ grid points with theirs, signed zeros and tiny
// negatives, non-finite values, and values around 2⁵⁰/10ᵖ.
func fixedKeyValues(rng *rand.Rand, p int) []float64 {
	scale := math.Pow(10, float64(p))
	unit := 1.0 / 8
	if p == 4 {
		unit = 1.0 / 32
	}
	var vs []float64
	withNeighbours := func(v float64) {
		vs = append(vs, v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1)))
	}
	for i := 0; i < 3000; i++ {
		vs = append(vs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(16)-6)))
	}
	for k := 0; k < 400; k++ {
		withNeighbours(float64(2*k+1) * unit)
		withNeighbours(-float64(2*k+1) * unit)
		withNeighbours(float64(k) / scale)
		withNeighbours(-float64(k) / scale)
	}
	for _, big := range []float64{math.Exp2(50) / scale, math.Exp2(50) / scale * 2, math.Exp2(49) / scale,
		(math.Exp2(50) - 0.5) / scale, 1e14, 1e20, 1e300, math.MaxFloat64} {
		withNeighbours(big)
		withNeighbours(-big)
	}
	vs = append(vs, 0, math.Copysign(0, -1), -1e-9, -4e-3, -4e-5, -5e-5, -5e-3, 4e-5, 5e-3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1), math.Inf(-1))
	return vs
}

// TestCutKeyMatchesSignature proves the byte key makes exactly the
// dedup decisions of the text signature: per number at both precisions
// (text ↔ token must be a bijection over the probe values), and on
// whole cuts drawn so that near-duplicates are common.
func TestCutKeyMatchesSignature(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, p := range []int{2, 4} {
		textOf := map[string]string{}
		tokenOf := map[string]string{}
		for _, v := range fixedKeyValues(rng, p) {
			text := fmt.Sprintf("%.*f", p, v)
			token := string(appendFixed(nil, v, p))
			if prev, ok := tokenOf[text]; ok && prev != token {
				t.Fatalf("p=%d: %v prints %q like an earlier value but keys %x, not %x", p, v, text, token, prev)
			}
			if prev, ok := textOf[token]; ok && prev != text {
				t.Fatalf("p=%d: %v (%q) shares key %x with %q", p, v, text, token, prev)
			}
			tokenOf[text], textOf[token] = token, text
		}
	}

	// Whole cuts: columns and values from small pools, so equal and
	// near-equal rows recur.
	noms := []float64{100, 100.004, 100.005, 100.006, 99.995, 100.0049999, -0.001, 0}
	vals := []float64{0.5, 0.50004, 0.50005, 0.50006, 0.500049999, -0.00001, 0, math.Copysign(0, -1)}
	var cuts []cut
	for i := 0; i < 3000; i++ {
		c := cut{nom: noms[rng.Intn(len(noms))]}
		for col := 0; col < 4; col++ {
			if rng.Intn(2) == 0 {
				c.cols = append(c.cols, col*11)
				c.vals = append(c.vals, vals[rng.Intn(len(vals))])
			}
		}
		cuts = append(cuts, c)
	}
	keyOf := map[string]string{}
	sigOf := map[string]string{}
	for _, c := range cuts {
		sig, key := signatureOracle(c), string(appendCutKey(nil, c))
		if prev, ok := keyOf[sig]; ok && prev != key {
			t.Fatalf("cut %+v: equal signature %q but a different key", c, sig)
		}
		if prev, ok := sigOf[key]; ok && prev != sig {
			t.Fatalf("cut %+v: signature %q shares its key with %q", c, sig, prev)
		}
		keyOf[sig], sigOf[key] = key, sig
	}
	if len(keyOf) < 100 || len(keyOf) > len(cuts)/2 {
		t.Fatalf("%d distinct cuts of %d: the draw does not exercise dedup", len(keyOf), len(cuts))
	}
}

// TestMakeCutMatchesMapOracle checks the dense-scratch makeCut against
// the map-accumulating original on every path of one enumeration, on a
// formulation with two dose layers and body bias (several sensitivity
// columns per gate) at a random iterate.  It also checks that pooled
// cuts do not alias the scratch row and that duplicates are refused.
func TestMakeCutMatchesMapOracle(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	model, err := FitModelCtx(context.Background(), golden, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.BothLayers = true
	opt.BiasGridUm = 20
	c, err := CompileCtx(context.Background(), golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := newCutSolverCompiled(c, opt)
	rng := rand.New(rand.NewSource(5))
	for j := range cs.x {
		cs.x[j] = rng.Float64()*4 - 2
	}
	paths := golden.TopPaths(500, 0)
	if len(paths) < 100 {
		t.Fatalf("only %d paths", len(paths))
	}
	multi := 0
	for i, p := range paths {
		want := makeCutMapOracle(cs, p, cs.x)
		got := cs.makeCut(p, cs.x)
		if math.Float64bits(got.nom) != math.Float64bits(want.nom) || len(got.cols) != len(want.cols) {
			t.Fatalf("path %d: nom %v with %d cols, oracle %v with %d", i, got.nom, len(got.cols), want.nom, len(want.cols))
		}
		for k := range want.cols {
			if got.cols[k] != want.cols[k] || math.Float64bits(got.vals[k]) != math.Float64bits(want.vals[k]) {
				t.Fatalf("path %d entry %d: %d:%v, oracle %d:%v", i, k, got.cols[k], got.vals[k], want.cols[k], want.vals[k])
			}
		}
		if len(got.cols) > len(p.Nodes) {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no path carries more columns than nodes; the fixture lacks multi-column sensitivities")
	}

	if !cs.addCut(paths[0]) {
		t.Fatal("first cut refused")
	}
	if cs.addCut(paths[0]) {
		t.Fatal("duplicate cut accepted")
	}
	pooled := cs.pool.snapshot()[0]
	sig := signatureOracle(pooled)
	for _, p := range paths[1:] {
		cs.addCut(p)
	}
	if got := signatureOracle(cs.pool.snapshot()[0]); got != sig {
		t.Fatalf("pooled cut changed after later makeCut calls: %q, was %q", got, sig)
	}
}
