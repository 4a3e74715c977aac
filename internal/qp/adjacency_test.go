package qp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// adjacencyTripletOracle is the Triplet-built adjacency of K that
// adjacencyOf replaced: every off-diagonal entry of P and both
// directions of every pair in a row of A go through Triplet.Compile,
// which sorts and merges them.
func adjacencyTripletOracle(p *CSR, a *CSR, n int) *CSR {
	t := NewTriplet(n, n)
	if p != nil {
		for r := 0; r < p.M; r++ {
			for k := p.RowPtr[r]; k < p.RowPtr[r+1]; k++ {
				if c := p.Col[k]; c != r {
					t.Add(r, c, 1)
				}
			}
		}
	}
	if a != nil {
		for r := 0; r < a.M; r++ {
			lo, hi := a.RowPtr[r], a.RowPtr[r+1]
			for i := lo; i < hi; i++ {
				for j := i + 1; j < hi; j++ {
					t.Add(a.Col[i], a.Col[j], 1)
					t.Add(a.Col[j], a.Col[i], 1)
				}
			}
		}
	}
	return t.Compile()
}

// patternAdjacencyTripletOracle is the Triplet-built adjacency of the
// stored upper pattern that reorder used before patternAdjacency.
func patternAdjacencyTripletOracle(f *ldltFactor) *CSR {
	t := NewTriplet(f.n, f.n)
	for c := 0; c < f.n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			if r := f.ki[p]; r != c {
				t.Add(r, c, 1)
				t.Add(c, r, 1)
			}
		}
	}
	return t.Compile()
}

// appendRowsTwoPassOracle is AppendRows as it ran before the single
// symbolic pass: merge, a full symbolic analysis of the merged-in-place
// pattern, then the reorder against that analysis's nnz(L), which on a
// win recompiles and analyses the pattern a second time.  It reports
// whether the new ordering won.
func appendRowsTwoPassOracle(f *ldltFactor, a *CSR, fromRow int) bool {
	f.mergeAppended(ataEntries(a, fromRow, f.iperm))
	f.symbolic()
	n := f.n
	rel, relFill := bestOrder(patternAdjacencyTripletOracle(f))
	if relFill >= f.lp[n] {
		return false
	}
	irel := make([]int, n)
	for k, v := range rel {
		irel[v] = k
	}
	ents := make([]upperEntry, 0, len(f.ki))
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			pi, pj := irel[f.ki[p]], irel[c]
			if pi > pj {
				pi, pj = pj, pi
			}
			ents = append(ents, upperEntry{row: pi, col: pj, base: f.baseVal[p], ata: f.ataVal[p]})
		}
	}
	newPerm := make([]int, n)
	for k := 0; k < n; k++ {
		newPerm[k] = f.perm[rel[k]]
	}
	f.perm = newPerm
	for k, v := range f.perm {
		f.iperm[v] = k
	}
	f.compilePattern(ents)
	f.symbolic()
	return true
}

// samePattern fails unless got and want have equal RowPtr and Col.
func samePattern(t *testing.T, label string, got, want *CSR) {
	t.Helper()
	if got.M != want.M || got.N != want.N {
		t.Fatalf("%s: %d×%d, oracle %d×%d", label, got.M, got.N, want.M, want.N)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		t.Fatalf("%s: RowPtr %v, oracle %v", label, got.RowPtr, want.RowPtr)
	}
	if !slices.Equal(got.Col, want.Col) {
		t.Fatalf("%s: Col %v, oracle %v", label, got.Col, want.Col)
	}
}

// randomPattern builds an m×n CSR directly (no Triplet), so rows can be
// empty, hold one entry, share columns with other rows, and, when dups
// is set, repeat a column.  Values are arbitrary: only the pattern
// matters to an adjacency.
func randomPattern(rng *rand.Rand, m, n, maxRow int, dups bool) *CSR {
	c := &CSR{M: m, N: n, RowPtr: make([]int, m+1)}
	for r := 0; r < m; r++ {
		var cols []int
		switch rng.Intn(4) {
		case 0: // empty row
		case 1:
			cols = []int{rng.Intn(n)}
		default:
			for k := rng.Intn(maxRow + 1); k > 0; k-- {
				cols = append(cols, rng.Intn(n))
			}
		}
		slices.Sort(cols)
		if !dups {
			cols = slices.Compact(cols)
		}
		for _, col := range cols {
			c.Col = append(c.Col, col)
			c.Val = append(c.Val, rng.NormFloat64())
		}
		c.RowPtr[r+1] = len(c.Col)
	}
	return c
}

// TestAdjacencyMatchesTripletOracle: both sort-free adjacency builders
// produce exactly the RowPtr and Col of the Triplet compilation they
// replaced, so bestOrder sees the same graph and picks the same
// ordering.  adjacencyOf runs on random P/A patterns — nil P, nil A,
// empty and one-entry rows, columns shared across rows, a column
// repeated within a row — and patternAdjacency on the stored pattern of
// cut-augmented grid factors, before and after cut rows merge in.
func TestAdjacencyMatchesTripletOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(30)
		var p, a *CSR
		if rng.Intn(4) != 0 {
			p = randomPattern(rng, n, n, 5, false)
		}
		if rng.Intn(4) != 0 {
			a = randomPattern(rng, rng.Intn(25), n, 8, trial%3 == 0)
		}
		label := fmt.Sprintf("trial %d (n=%d, P %v, A %v)", trial, n, p != nil, a != nil)
		samePattern(t, label, adjacencyOf(p, a, n), adjacencyTripletOracle(p, a, n))
	}

	for _, g := range []int{3, 6, 9} {
		rng := rand.New(rand.NewSource(int64(g)))
		prob := gridCutQP(rng, g, 2, 0, 1, 1)
		n := g * g
		f := newLDLTFactor(prob.P, DefaultSettings().Sigma, prob.A, n)
		samePattern(t, fmt.Sprintf("g=%d adjacencyOf", g), adjacencyOf(prob.P, prob.A, n), adjacencyTripletOracle(prob.P, prob.A, n))
		samePattern(t, fmt.Sprintf("g=%d cold", g), f.patternAdjacency(), patternAdjacencyTripletOracle(f))
		a := prob.A
		for round := 0; round < 4; round++ {
			cols, vals, _ := gridCuts(rng, g, 1+rng.Intn(6))
			from := a.M
			a = ConcatRows(a, CSRFromRows(n, cols, vals))
			f.mergeAppended(ataEntries(a, from, f.iperm))
			samePattern(t, fmt.Sprintf("g=%d append %d", g, round), f.patternAdjacency(), patternAdjacencyTripletOracle(f))
			f.reorder()
		}
	}
}

// TestAppendRowsMatchesTwoPassOracle drives two identical factors of a
// cut-augmented grid QP through the same run of cut-row appends: one
// with AppendRows, one with the two-pass oracle.  After every append
// the permutation, the column pointers and row indices of L and the
// supernode partition must be equal, and after Refactor the panels and
// pivots must be equal bit for bit.  The run must take both reorder
// branches: the candidate ordering winning and losing.
func TestAppendRowsMatchesTwoPassOracle(t *testing.T) {
	const rho = 0.37
	sigma := DefaultSettings().Sigma
	wins, losses := 0, 0
	for _, g := range []int{5, 8, 12} {
		rng := rand.New(rand.NewSource(100 + int64(g)))
		prob := gridCutQP(rng, g, 1, 0, 1, 1)
		n := g * g
		got := newLDLTFactor(prob.P, sigma, prob.A, n)
		want := newLDLTFactor(prob.P, sigma, prob.A, n)
		a := prob.A
		for round := 0; round < 12; round++ {
			cols, vals, _ := gridCuts(rng, g, 1+rng.Intn(4))
			from := a.M
			a = ConcatRows(a, CSRFromRows(n, cols, vals))
			got.AppendRows(a, from)
			if appendRowsTwoPassOracle(want, a, from) {
				wins++
			} else {
				losses++
			}
			label := fmt.Sprintf("g=%d append %d", g, round)
			for _, v := range []struct {
				name      string
				got, want []int
			}{
				{"perm", got.perm, want.perm},
				{"lp", got.lp, want.lp},
				{"li", got.li, want.li},
				{"sPtr", got.sPtr, want.sPtr},
			} {
				if !slices.Equal(v.got, v.want) {
					t.Fatalf("%s: %s differs from the two-pass oracle", label, v.name)
				}
			}
			if err := got.Refactor(rho); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := want.Refactor(rho); err != nil {
				t.Fatalf("%s: oracle: %v", label, err)
			}
			if !floatBitsEqual(got.px, want.px) || !floatBitsEqual(got.d, want.d) {
				t.Fatalf("%s: panels or pivots differ from the two-pass oracle", label)
			}
		}
	}
	t.Logf("candidate ordering won %d appends, lost %d", wins, losses)
	if wins == 0 || losses == 0 {
		t.Fatalf("reorder branches: %d wins, %d losses; the run must take both", wins, losses)
	}
}
