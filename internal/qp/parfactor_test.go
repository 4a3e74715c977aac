package qp

import (
	"fmt"
	"testing"
)

// gridDoseFactor builds the LDLᵀ factor of the matrix the production
// dose QP hands the x-step: a g×g grid with box rows on every cell and
// 4-neighbour smoothness rows, unit curvature — K = P + σI + ρAᵀA is
// the usual banded grid Laplacian.
func gridDoseFactor(g int) *ldltFactor {
	n := g * g
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 1
	}
	rows := n + 2*g*(g-1)
	tr := NewTriplet(rows, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	r := n
	for y := 0; y < g; y++ {
		for x := 0; x < g; x++ {
			j := y*g + x
			if x+1 < g {
				tr.Add(r, j, 1)
				tr.Add(r, j+1, -1)
				r++
			}
			if y+1 < g {
				tr.Add(r, j, 1)
				tr.Add(r, j+g, -1)
				r++
			}
		}
	}
	return new(ldltFactor).analyze(diagCSRBench(pd), DefaultSettings().Sigma, tr.Compile(), n)
}

func diagCSRBench(d []float64) *CSR {
	tr := NewTriplet(len(d), len(d))
	for i, v := range d {
		tr.Add(i, i, v)
	}
	return tr.Compile()
}

// BenchmarkLDLTFactor times the supernodal numeric phase on a 64×64
// grid dose matrix.  The ρ argument alternates between two rungs so
// every iteration runs the full numeric phase.
func BenchmarkLDLTFactor(b *testing.B) {
	f := gridDoseFactor(64)
	rhos := [2]float64{0.1, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Refactor(rhos[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupernodalSolve compares the blocked supernodal triangular
// sweeps against the scalar column-at-a-time reference on the 64×64
// grid dose matrix, then scales the supernodal path over batched
// right-hand sides (SolveBatch streams the factor once per supernode
// for the whole block).  Every variant computes bit-identical results;
// only the wall differs.
func BenchmarkSupernodalSolve(b *testing.B) {
	f := gridDoseFactor(64)
	if err := f.Refactor(0.5); err != nil {
		b.Fatal(err)
	}
	n := f.n
	lx, d := scalarFactor(b, f, 0.5)
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i%17) - 8
	}
	x := make([]float64, n)
	b.Run("scalar/rhs=1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scalarSolve(f, lx, d, x, rhs)
		}
	})
	for _, nrhs := range []int{1, 4, 8} {
		xs := make([][]float64, nrhs)
		bs := make([][]float64, nrhs)
		for q := range xs {
			xs[q] = make([]float64, n)
			bs[q] = append([]float64(nil), rhs...)
		}
		b.Run(fmt.Sprintf("supernodal/rhs=%d", nrhs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.SolveBatch(xs, bs)
			}
		})
	}
}
