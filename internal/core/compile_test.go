package core

import (
	"context"
	"math"
	"testing"
)

// compiledSnapshot captures every slice of the artifact bitwise.
type compiledSnapshot struct {
	gridOf, order         []int
	dosePD, doseQ, cutPD  []float64
	fixedRowPtr, fixedCol []int
	fixedVal              []float64
	fixedL, fixedU        []float64
	worstArr, worstSuf    []float64
	fastMCT, snapMargin   float64
	nomLeak               float64
}

func snapshotCompiled(c *Compiled) compiledSnapshot {
	cpI := func(s []int) []int { return append([]int(nil), s...) }
	cpF := func(s []float64) []float64 { return append([]float64(nil), s...) }
	return compiledSnapshot{
		gridOf: cpI(c.gridOf), order: cpI(c.order),
		dosePD: cpF(c.dosePD), doseQ: cpF(c.doseQ), cutPD: cpF(c.cutPD),
		fixedRowPtr: cpI(c.fixedA.RowPtr), fixedCol: cpI(c.fixedA.Col),
		fixedVal: cpF(c.fixedA.Val),
		fixedL:   cpF(c.fixedL), fixedU: cpF(c.fixedU),
		worstArr: cpF(c.worstArr), worstSuf: cpF(c.worstSuf),
		fastMCT: c.fastMCT, snapMargin: c.snapMarginNW, nomLeak: c.nomLeakUW,
	}
}

func eqI(t *testing.T, name string, a, b []int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: %d != %d", name, i, a[i], b[i])
		}
	}
}

func eqF(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v != %v", name, i, a[i], b[i])
		}
	}
}

func (s compiledSnapshot) requireEqual(t *testing.T, o compiledSnapshot) {
	t.Helper()
	eqI(t, "gridOf", s.gridOf, o.gridOf)
	eqI(t, "order", s.order, o.order)
	eqF(t, "dosePD", s.dosePD, o.dosePD)
	eqF(t, "doseQ", s.doseQ, o.doseQ)
	eqF(t, "cutPD", s.cutPD, o.cutPD)
	eqI(t, "fixedA.RowPtr", s.fixedRowPtr, o.fixedRowPtr)
	eqI(t, "fixedA.Col", s.fixedCol, o.fixedCol)
	eqF(t, "fixedA.Val", s.fixedVal, o.fixedVal)
	eqF(t, "fixedL", s.fixedL, o.fixedL)
	eqF(t, "fixedU", s.fixedU, o.fixedU)
	eqF(t, "worstArr", s.worstArr, o.worstArr)
	eqF(t, "worstSuf", s.worstSuf, o.worstSuf)
	eqF(t, "scalars",
		[]float64{s.fastMCT, s.snapMargin, s.nomLeak},
		[]float64{o.fastMCT, o.snapMargin, o.nomLeak})
}

// TestCompiledImmutableUnderRuns pins the ownership rule: QCP with cuts
// and the node QP both run off one artifact without mutating a single
// bit of it.
func TestCompiledImmutableUnderRuns(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	model, err := FitModel(golden, false)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.G = 20
	c, err := Compile(golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	before := snapshotCompiled(c)

	ctx := context.Background()
	if _, err := SolveQCP(ctx, QCPRequest{Compiled: c, Opt: opt}); err != nil {
		t.Fatal(err)
	}
	snapshotCompiled(c).requireEqual(t, before)

	if _, err := SolveQP(ctx, QPRequest{Compiled: c, Opt: opt, TauPs: 0.99 * golden.MCT}); err != nil {
		t.Fatal(err)
	}
	nopt := opt
	nopt.Method = MethodNode
	if _, err := SolveQP(ctx, QPRequest{Compiled: c, Opt: nopt, TauPs: 0.995 * golden.MCT}); err != nil {
		t.Fatal(err)
	}
	snapshotCompiled(c).requireEqual(t, before)
}

// TestCompiledRunsDeterministic: two runs off the same shared artifact
// return bit-identical results (the artifact carries no run state).
func TestCompiledRunsDeterministic(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	model, err := FitModel(golden, false)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.G = 20
	c, err := Compile(golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r1, err := SolveQCP(ctx, QCPRequest{Compiled: c, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := SolveQCP(ctx, QCPRequest{Compiled: c, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	// And against the compile-on-demand entry point.
	r3, err := SolveQCP(ctx, QCPRequest{Golden: golden, Model: model, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		a, b *Result
	}{{"shared artifact", r1, r2}, {"fresh compile", r1, r3}} {
		eqF(t, pair.name+" poly", pair.a.Layers.Poly.D, pair.b.Layers.Poly.D)
		eqF(t, pair.name+" scalars",
			[]float64{pair.a.PredMCT, pair.a.PredDeltaLeakNW, pair.a.Golden.MCTps, pair.a.Golden.LeakUW},
			[]float64{pair.b.PredMCT, pair.b.PredDeltaLeakNW, pair.b.Golden.MCTps, pair.b.Golden.LeakUW})
	}
}

// TestCompiledOptionsMismatch: a run whose options project onto a
// different compile key is rejected instead of silently using the wrong
// formulation.
func TestCompiledOptionsMismatch(t *testing.T) {
	_, golden := smallGolden(t, 0.03)
	model, err := FitModel(golden, false)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.G = 20
	c, err := Compile(golden, model, opt.CompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad := opt
	bad.G = 10
	if _, err := SolveQP(context.Background(), QPRequest{Compiled: c, Opt: bad, TauPs: 0.99 * golden.MCT}); err == nil {
		t.Fatal("expected compile-key mismatch error for G=10 run on G=20 artifact")
	}
	bad = opt
	bad.BothLayers = true
	if _, err := SolveQCP(context.Background(), QCPRequest{Compiled: c, Opt: bad}); err == nil {
		t.Fatal("expected compile-key mismatch error for both-layers run on poly artifact")
	}
}
