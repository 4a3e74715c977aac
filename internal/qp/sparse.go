// Package qp provides the mathematical-programming substrate for the
// dose-map optimization: sparse matrices, a sparse LDLᵀ factorization,
// and a convex quadratic-program solver based on the operator-splitting
// (ADMM) method popularized by OSQP.
//
// The paper solves its QP and QCP instances with ILOG CPLEX; no such
// solver exists in the Go stdlib ecosystem, so this package implements
// one from scratch.  It solves problems of the form
//
//	minimize   ½ xᵀPx + qᵀx
//	subject to l ≤ Ax ≤ u
//
// with P positive semidefinite and sparse A.  The quadratically
// constrained variant (minimize T s.t. ΔLeakage ≤ ξ) is handled by the
// core package via monotone bisection on T, using this QP as the
// feasibility oracle.
package qp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Triplet accumulates matrix entries in coordinate form.  Duplicate
// entries at the same (row, col) are summed when compiled to CSR, which
// makes constraint assembly straightforward.
type Triplet struct {
	rows, cols []int
	vals       []float64
	m, n       int
}

// NewTriplet returns an empty m×n triplet accumulator.
func NewTriplet(m, n int) *Triplet {
	return &Triplet{m: m, n: n}
}

// Add records the entry (i, j) += v.  It panics on out-of-range indices:
// constraint assembly bugs should fail loudly during development.
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.m || j < 0 || j >= t.n {
		panic(fmt.Sprintf("qp: triplet index (%d,%d) out of range %d×%d", i, j, t.m, t.n))
	}
	if v == 0 {
		return
	}
	t.rows = append(t.rows, i)
	t.cols = append(t.cols, j)
	t.vals = append(t.vals, v)
}

// NNZ returns the number of accumulated entries (before duplicate
// summing).
func (t *Triplet) NNZ() int { return len(t.vals) }

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	M, N   int
	RowPtr []int
	Col    []int
	Val    []float64

	// ones is the length of the leading run of single-entry rows and
	// twos the length of the run of two-entry rows right after it, both
	// set by markOneRows.  The dose-map constraint matrices open with one
	// box row per variable and continue with the two-entry smoothness
	// rows.  MulVec takes a branch-free fast path over the first run
	// (RowPtr[r] == r there), and the ADMM row sweep (Solver.sweep) has
	// row bodies without row-pointer loads or inner loops for both
	// (RowPtr[r] == ones + 2(r − ones) on the second).  Zero means "not
	// analyzed" — the generic loops handle everything.
	ones, twos int
}

// markOneRows measures the single-entry row prefix and the two-entry run
// after it for the fast paths.  Callers that own the matrix exclusively
// (the Solver marks its private clone) invoke it once after the
// structure is final.
func (c *CSR) markOneRows() {
	r := 0
	for r < c.M && c.RowPtr[r+1]-c.RowPtr[r] == 1 {
		r++
	}
	c.ones = r
	for r < c.M && c.RowPtr[r+1]-c.RowPtr[r] == 2 {
		r++
	}
	c.twos = r - c.ones
}

// Compile converts the triplet form to CSR, summing duplicates and
// dropping exact zeros that result from cancellation.
func (t *Triplet) Compile() *CSR {
	type ent struct {
		r, c int
		v    float64
	}
	ents := make([]ent, len(t.vals))
	for i := range t.vals {
		ents[i] = ent{t.rows[i], t.cols[i], t.vals[i]}
	}
	slices.SortFunc(ents, func(a, b ent) int {
		if a.r != b.r {
			return cmp.Compare(a.r, b.r)
		}
		return cmp.Compare(a.c, b.c)
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

// NNZ returns the number of stored nonzeros.
func (c *CSR) NNZ() int { return len(c.Val) }

// MulVec computes y = A·x.  y must have length M and is overwritten.
func (c *CSR) MulVec(y, x []float64) {
	rp, col, val := c.RowPtr, c.Col, c.Val
	r := 0
	// Single-entry prefix: RowPtr[r] == r there, so the row loop
	// collapses to one multiply with no pointer loads.  Same single
	// product as the generic row body, except that a −0 product stays −0
	// instead of becoming 0 + (−0) = +0; Solver.sweep's prefix body keeps
	// that bare product.
	for ; r < c.ones; r++ {
		y[r] = val[r] * x[col[r]]
	}
	for ; r < c.M; r++ {
		s := 0.0
		end := rp[r+1]
		for k := rp[r]; k < end; k++ {
			s += val[k] * x[col[k]]
		}
		y[r] = s
	}
}

// MulTVec computes y = Aᵀ·x.  y must have length N and is overwritten.
func (c *CSR) MulTVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	c.AddMulTVec(y, x)
}

// AddMulTVec computes y += Aᵀ·x without zeroing y first.
func (c *CSR) AddMulTVec(y, x []float64) {
	rp, col, val := c.RowPtr, c.Col, c.Val
	for r := 0; r < c.M; r++ {
		xr := x[r]
		if xr == 0 {
			continue
		}
		end := rp[r+1]
		for k := rp[r]; k < end; k++ {
			y[col[k]] += val[k] * xr
		}
	}
}

// rowInfNormsInto writes the infinity norm of each row into norms (len
// M) and returns it.
func (c *CSR) rowInfNormsInto(norms []float64) []float64 {
	for r := 0; r < c.M; r++ {
		m := 0.0
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			if a := math.Abs(c.Val[k]); a > m {
				m = a
			}
		}
		norms[r] = m
	}
	return norms
}

// colInfNormsInto writes the infinity norm of each column into norms
// (len N) and returns it.
func (c *CSR) colInfNormsInto(norms []float64) []float64 {
	clear(norms)
	for k, col := range c.Col {
		if a := math.Abs(c.Val[k]); a > norms[col] {
			norms[col] = a
		}
	}
	return norms
}

// ScaleRows multiplies row r by s[r] in place.
func (c *CSR) ScaleRows(s []float64) {
	for r := 0; r < c.M; r++ {
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			c.Val[k] *= s[r]
		}
	}
}

// ScaleCols multiplies column j by s[j] in place.
func (c *CSR) ScaleCols(s []float64) {
	for k, col := range c.Col {
		c.Val[k] *= s[col]
	}
}

// cloneInto makes dst a deep copy of c, reusing dst's arrays, and
// returns dst.
func (c *CSR) cloneInto(dst *CSR) *CSR {
	*dst = CSR{M: c.M, N: c.N,
		RowPtr: append(dst.RowPtr[:0], c.RowPtr...),
		Col:    append(dst.Col[:0], c.Col...),
		Val:    append(dst.Val[:0], c.Val...),
		ones:   c.ones,
		twos:   c.twos,
	}
	return dst
}

// csrEqual reports whether two matrices hold the identical structure
// and bitwise-equal values.  The batched lockstep solver uses it to
// validate that a family of Solvers may share one LDLᵀ factor: equal
// bits in — equal bits out, so the shared-factor solve is exactly the
// solve each member's own factor would have produced.
func csrEqual(a, b *CSR) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.M != b.M || a.N != b.N || len(a.Col) != len(b.Col) {
		return false
	}
	for i, v := range a.RowPtr {
		if b.RowPtr[i] != v {
			return false
		}
	}
	for i, v := range a.Col {
		if b.Col[i] != v {
			return false
		}
	}
	return floatBitsEqual(a.Val, b.Val)
}

// floatBitsEqual reports element-wise Float64bits equality (so NaN
// payloads and signed zeros are distinguished, unlike ==).
func floatBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(b[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

// CSRFromRows builds a CSR directly from per-row column/value lists.
// Each row's columns must be strictly increasing (already canonical);
// exact zeros are dropped, matching Triplet.Add/Compile semantics, so
// the result is bit-identical to the triplet route without the global
// sort.
func CSRFromRows(n int, cols [][]int, vals [][]float64) *CSR {
	m := len(cols)
	nnz := 0
	for _, c := range cols {
		nnz += len(c)
	}
	out := &CSR{M: m, N: n,
		RowPtr: make([]int, m+1),
		Col:    make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	for r := range cols {
		prev := -1
		for k, c := range cols[r] {
			if c <= prev || c >= n {
				panic(fmt.Sprintf("qp: CSRFromRows row %d columns not strictly increasing in [0,%d)", r, n))
			}
			prev = c
			if v := vals[r][k]; v != 0 {
				out.Col = append(out.Col, c)
				out.Val = append(out.Val, v)
			}
		}
		out.RowPtr[r+1] = len(out.Col)
	}
	return out
}

// ConcatRows returns a new CSR stacking b's rows below a's.  Both
// matrices must share the same column count.
func ConcatRows(a, b *CSR) *CSR {
	if a.N != b.N {
		panic("qp: ConcatRows column mismatch")
	}
	out := &CSR{M: a.M + b.M, N: a.N,
		RowPtr: make([]int, a.M+b.M+1),
		Col:    make([]int, 0, len(a.Col)+len(b.Col)),
		Val:    make([]float64, 0, len(a.Val)+len(b.Val)),
	}
	copy(out.RowPtr, a.RowPtr)
	out.Col = append(out.Col, a.Col...)
	out.Val = append(out.Val, a.Val...)
	off := a.RowPtr[a.M]
	for r := 0; r < b.M; r++ {
		out.RowPtr[a.M+r+1] = off + b.RowPtr[r+1]
	}
	out.Col = append(out.Col, b.Col...)
	out.Val = append(out.Val, b.Val...)
	return out
}

// AppendRows stacks b's rows below c's in place.  The arrays grow with
// amortized capacity, so a run of appends costs O(nnz(b)) each, not a
// copy of c.  Both matrices must share the column count, and c must own
// its arrays: no other CSR may share them.  The fast-path marks of
// markOneRows stay valid lower bounds; callers that want the longer
// runs re-mark.
func (c *CSR) AppendRows(b *CSR) {
	if c.N != b.N {
		panic("qp: AppendRows column mismatch")
	}
	off := c.RowPtr[c.M]
	for r := 0; r < b.M; r++ {
		c.RowPtr = append(c.RowPtr, off+b.RowPtr[r+1])
	}
	c.Col = append(c.Col, b.Col...)
	c.Val = append(c.Val, b.Val...)
	c.M += b.M
}

// Dense expands the matrix into a dense row-major [][]float64, for tests
// and debugging only.
func (c *CSR) Dense() [][]float64 {
	d := make([][]float64, c.M)
	for r := range d {
		d[r] = make([]float64, c.N)
		for k := c.RowPtr[r]; k < c.RowPtr[r+1]; k++ {
			d[r][c.Col[k]] += c.Val[k]
		}
	}
	return d
}

// Vector helpers.  All operate element-wise on equal-length slices.

// dotBlock is the fixed reduction-block length of Dot.
const dotBlock = 1024

// Dot returns aᵀb as a sum of fixed 1024-element block partials, the
// partials added in block order.  The blocking is part of the result:
// Solver.Objective reports Dot values, and a plain running sum would
// round differently.
func Dot(a, b []float64) float64 {
	s := 0.0
	for lo := 0; lo < len(a); lo += dotBlock {
		hi := min(lo+dotBlock, len(a))
		p := 0.0
		for i := lo; i < hi; i++ {
			p += a[i] * b[i]
		}
		s += p
	}
	return s
}

// InfNorm returns max|a_i| (0 for an empty slice).
func InfNorm(a []float64) float64 {
	m := 0.0
	for _, v := range a {
		if av := math.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// Scale multiplies a by s in place.
func Scale(a []float64, s float64) {
	for i := range a {
		a[i] *= s
	}
}
