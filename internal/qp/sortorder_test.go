package qp

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortFuncMatchesSortSlice pins the permutation the symbolic phase
// relies on: slices.SortFunc with cmpColRow must leave random
// upperEntry slices, crowded with duplicate (row, col) keys, in exactly
// the order sort.Slice with the matching less function leaves them —
// payloads included, since duplicates are summed in that order.  The
// same holds for Triplet.Compile, whose duplicate sums are compared bit
// for bit with a sort.Slice compilation.
func TestSortFuncMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		size := 1 + rng.Intn(400)
		keys := 1 + rng.Intn(12)
		ents := make([]upperEntry, size)
		for i := range ents {
			ents[i] = upperEntry{row: rng.Intn(keys), col: rng.Intn(keys), base: float64(i), ata: rng.NormFloat64()}
		}
		want := slices.Clone(ents)
		sort.Slice(want, func(a, b int) bool {
			if want[a].col != want[b].col {
				return want[a].col < want[b].col
			}
			return want[a].row < want[b].row
		})
		slices.SortFunc(ents, cmpColRow)
		if !slices.Equal(ents, want) {
			t.Fatalf("trial %d (%d entries, %d keys): SortFunc order differs from sort.Slice", trial, size, keys)
		}
	}

	for trial := 0; trial < 50; trial++ {
		m, n := 1+rng.Intn(6), 1+rng.Intn(6)
		tr := NewTriplet(m, n)
		for k := 0; k < 300; k++ {
			tr.Add(rng.Intn(m), rng.Intn(n), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)))
		}
		got := tr.Compile()
		want := compileSortSlice(tr)
		if !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) || !floatBitsEqual(got.Val, want.Val) {
			t.Fatalf("trial %d: Triplet.Compile differs from a sort.Slice compilation", trial)
		}
	}
}

// compileSortSlice is Triplet.Compile with the sort.Slice ordering.
func compileSortSlice(t *Triplet) *CSR {
	type ent struct {
		r, c int
		v    float64
	}
	ents := make([]ent, len(t.vals))
	for i := range t.vals {
		ents[i] = ent{t.rows[i], t.cols[i], t.vals[i]}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].r != ents[b].r {
			return ents[a].r < ents[b].r
		}
		return ents[a].c < ents[b].c
	})
	c := &CSR{M: t.m, N: t.n, RowPtr: make([]int, t.m+1)}
	for i := 0; i < len(ents); {
		j := i + 1
		v := ents[i].v
		for j < len(ents) && ents[j].r == ents[i].r && ents[j].c == ents[i].c {
			v += ents[j].v
			j++
		}
		if v != 0 {
			c.Col = append(c.Col, ents[i].c)
			c.Val = append(c.Val, v)
			c.RowPtr[ents[i].r+1]++
		}
		i = j
	}
	for r := 0; r < t.m; r++ {
		c.RowPtr[r+1] += c.RowPtr[r]
	}
	return c
}
