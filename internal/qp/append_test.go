package qp

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// appendRowsConcatOracle is Solver.AppendRows as it was before the rows
// were appended in place: the scaled rows are stacked below a fresh
// copy of A by ConcatRows and every row-indexed vector is regrown by
// appending a zero block.
func appendRowsConcatOracle(s *Solver, a *CSR, l, u []float64) {
	scaled := a.cloneInto(new(CSR))
	scaled.ScaleCols(s.d)
	eNew := scaled.rowInfNormsInto(make([]float64, scaled.M))
	for i := range eNew {
		eNew[i] = invSqrtSafe(eNew[i])
	}
	scaled.ScaleRows(eNew)

	mOld := s.m
	s.a = ConcatRows(s.a, scaled)
	s.a.markOneRows()
	s.m = s.a.M
	s.e = append(s.e, eNew...)
	for i := 0; i < a.M; i++ {
		s.l = append(s.l, l[i]*eNew[i])
		s.u = append(s.u, u[i]*eNew[i])
	}
	grow := func(v []float64) []float64 { return append(v, make([]float64, a.M)...) }
	s.y = grow(s.y)
	s.z = grow(s.z)
	s.resAx = grow(s.resAx)
	s.dyAcc = grow(s.dyAcc)
	s.vioAx = grow(s.vioAx)
	for i := mOld; i < s.m; i++ {
		sum := 0.0
		for k := s.a.RowPtr[i]; k < s.a.RowPtr[i+1]; k++ {
			sum += s.a.Val[k] * s.x[s.a.Col[k]]
		}
		s.z[i] = sum
	}
	s.appendFactorRows(mOld)
}

// TestAppendRowsMatchesConcatOracle drives two solvers of one
// cut-engine shaped QP through the same solves and appends, one with
// AppendRows and one with the ConcatRows oracle, and after every append
// and every solve requires the bits of the scaled A (pattern, values and
// fast-path marks), l, u, e, x, y and z to agree.  Single-row and
// multi-row appends follow each other, so the in-place arrays both grow
// into spare capacity and reallocate.
func TestAppendRowsMatchesConcatOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(340 + seed))
		g := 6 + int(seed)
		prob := gridCutQP(rng, g, 2, -5, 1, 0.1)
		got, err := NewSolver(prob, DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSolver(prob, DefaultSettings())
		if err != nil {
			t.Fatal(err)
		}
		same := func(when string) {
			t.Helper()
			if got.m != want.m || got.a.M != want.a.M ||
				!slices.Equal(got.a.RowPtr, want.a.RowPtr) || !slices.Equal(got.a.Col, want.a.Col) ||
				got.a.ones != want.a.ones || got.a.twos != want.a.twos {
				t.Fatalf("seed %d %s: scaled A pattern differs", seed, when)
			}
			for _, v := range []struct {
				name      string
				got, want []float64
			}{
				{"A value", got.a.Val, want.a.Val}, {"l", got.l, want.l}, {"u", got.u, want.u},
				{"e", got.e, want.e}, {"x", got.x, want.x}, {"y", got.y, want.y}, {"z", got.z, want.z},
			} {
				if !floatBitsEqual(v.got, v.want) {
					t.Fatalf("seed %d %s: %s differs from the ConcatRows oracle", seed, when, v.name)
				}
			}
		}
		for round := 0; round < 6; round++ {
			k := 1 + round%3
			cols, vals, u := gridCuts(rng, g, k)
			l := make([]float64, k)
			for i := range l {
				l[i] = math.Inf(-1)
			}
			a := CSRFromRows(g*g, cols, vals)
			if err := got.AppendRows(a, l, u); err != nil {
				t.Fatal(err)
			}
			appendRowsConcatOracle(want, a, l, u)
			same("after append")
			if _, err := got.SolveCtx(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := want.SolveCtx(ctx); err != nil {
				t.Fatal(err)
			}
			same("after solve")
		}
	}
}
