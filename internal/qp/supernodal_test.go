package qp

import (
	"math"
	"math/rand"
	"testing"
)

// This file checks the supernodal factorization against a scalar
// column-at-a-time reference built on the SAME symbolic views (perm,
// CSC pattern, row lists).  The production kernels guarantee that every
// element accumulates its terms in ascending source column with padded
// panel slots contributing exact zeros, so the supernodal L, D and
// solves must agree with the scalar ones to the last bit — not just to
// a tolerance.

// scalarFactor runs the classic up-looking column-at-a-time LDLᵀ over
// the factor's symbolic structure: for each column k, scatter the
// lower column of K = base + ρ·AᵀA, subtract one rank-1 term per entry
// of row k of L in ascending source column, divide by the pivot.  This
// is exactly the op sequence the supernodal kernel reproduces (plus
// bitwise-inert padded-zero terms), making the Float64bits comparison
// meaningful.
func scalarFactor(t testing.TB, f *ldltFactor, rho float64) (lx, d []float64) {
	t.Helper()
	n := f.n
	lx = make([]float64, f.lp[n])
	d = make([]float64, n)
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		for t := f.lowPtr[k]; t < f.lowPtr[k+1]; t++ {
			src := f.lowSrc[t]
			w[f.lowRow[t]] = f.baseVal[src] + rho*f.ataVal[src]
		}
		dk := w[k]
		w[k] = 0
		for t := f.rowPtr[k]; t < f.rowPtr[k+1]; t++ {
			p := f.rowPos[t]
			lkj := lx[p]
			sj := d[f.rowCol[t]] * lkj
			dk -= lkj * sj
			for q := p + 1; q < f.lp[f.rowCol[t]+1]; q++ {
				w[f.li[q]] -= lx[q] * sj
			}
		}
		if dk == 0 {
			t.Fatalf("scalar reference: zero pivot at column %d", k)
		}
		d[k] = dk
		for p := f.lp[k]; p < f.lp[k+1]; p++ {
			i := f.li[p]
			lx[p] = w[i] / dk
			w[i] = 0
		}
	}
	return lx, d
}

// factorL materializes the factor's off-diagonal values in CSC order
// (aligned with li/lp), the layout of the scalar reference.
func (f *ldltFactor) factorL() []float64 {
	l := make([]float64, f.lp[f.n])
	for p, slot := range f.cscPos {
		l[p] = f.px[slot]
	}
	return l
}

// scalarSolve is the scalar reference for Solve: permute, push-mode
// forward solve (ascending source column per element), diagonal scale,
// pull-mode backward solve, unpermute.  The backward sweep follows the
// production accumulation convention: per column, below-supernode rows
// first (ascending), then the rows inside the column's own supernode —
// the order bwdSuper fixes so its external phase can run blocked.
func scalarSolve(f *ldltFactor, lx, d, x, b []float64) {
	n := f.n
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		w[k] = b[f.perm[k]]
	}
	for j := 0; j < n; j++ {
		wj := w[j]
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			w[f.li[p]] -= lx[p] * wj
		}
	}
	for j := range w {
		w[j] /= d[j]
	}
	for j := n - 1; j >= 0; j-- {
		c1 := f.sPtr[f.snode[j]+1]
		wj := w[j]
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			if f.li[p] >= c1 {
				wj -= lx[p] * w[f.li[p]]
			}
		}
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			i := f.li[p]
			if i >= c1 {
				break
			}
			wj -= lx[p] * w[i]
		}
		w[j] = wj
	}
	for k := 0; k < n; k++ {
		x[f.perm[k]] = w[k]
	}
}

// solve1 is a one-right-hand-side SolveBatch.
func solve1(f *ldltFactor, x, b []float64) {
	f.SolveBatch([][]float64{x}, [][]float64{b})
}

// randomFactor builds the factor of K = P + σI + ρAᵀA for a random
// diagonal P and a random sparse A with a single-entry box prefix —
// the production problem shape at a miniature scale.
func randomFactor(rng *rand.Rand, n, extraRows int) *ldltFactor {
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 0.5 + rng.Float64()
	}
	tr := NewTriplet(n+extraRows, n)
	for i := 0; i < n; i++ {
		tr.Add(i, i, 1)
	}
	for r := 0; r < extraRows; r++ {
		nz := 2 + rng.Intn(4)
		for k := 0; k < nz; k++ {
			tr.Add(n+r, rng.Intn(n), rng.NormFloat64())
		}
	}
	return new(ldltFactor).analyze(diagCSRBench(pd), DefaultSettings().Sigma, tr.Compile(), n)
}

// TestSupernodePartition checks the structural invariants of supernode
// detection on random patterns: the column ranges partition 0..n, the
// columns of one supernode form an elimination-tree chain whose
// below-group structure is contained in the panel's shared row list,
// and every amalgamated panel respects the padding budget.
func TestSupernodePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(120)
		f := randomFactor(rng, n, n/2+rng.Intn(2*n))
		ns := len(f.sPtr) - 1

		// Partition of 0..n.
		if f.sPtr[0] != 0 || f.sPtr[ns] != n {
			t.Fatalf("trial %d: sPtr does not span 0..%d: %v", trial, n, f.sPtr)
		}
		for s := 0; s < ns; s++ {
			if f.sPtr[s+1] <= f.sPtr[s] {
				t.Fatalf("trial %d: empty or reversed supernode %d", trial, s)
			}
			for k := f.sPtr[s]; k < f.sPtr[s+1]; k++ {
				if f.snode[k] != s {
					t.Fatalf("trial %d: snode[%d] = %d, want %d", trial, k, f.snode[k], s)
				}
			}
		}

		trueEntries := 0
		for s := 0; s < ns; s++ {
			c0, c1 := f.sPtr[s], f.sPtr[s+1]
			width := c1 - c0

			// Chain: each non-leading column is its predecessor's etree
			// parent (the amalgamation walk never crosses a chain break).
			for k := c0 + 1; k < c1; k++ {
				if f.parent[k-1] != k {
					t.Fatalf("trial %d: supernode %d columns %d..%d break the etree chain at %d", trial, s, c0, c1-1, k)
				}
			}

			// Shared pattern: every column's below-group structure is in
			// the panel row list (the last column's structure).
			srows := f.sRows[f.sRowPtr[s]:f.sRowPtr[s+1]]
			inPanel := map[int]bool{}
			for _, i := range srows {
				inPanel[i] = true
			}
			cols := 0
			for k := c0; k < c1; k++ {
				for p := f.lp[k]; p < f.lp[k+1]; p++ {
					if i := f.li[p]; i >= c1 {
						if !inPanel[i] {
							t.Fatalf("trial %d: supernode %d: column %d row %d missing from panel rows", trial, s, k, i)
						}
					} else if i < k {
						t.Fatalf("trial %d: supernode %d: column %d lists upper row %d", trial, s, k, i)
					}
					cols++
				}
			}
			trueEntries += cols

			// Padding budget: a lone fundamental block has none; a merged
			// panel stays within the amalgamation thresholds (the greedy
			// test evaluates the cumulative fraction of the whole group).
			panel := width*len(srows) + width*(width-1)/2
			pad := panel - cols
			if pad < 0 {
				t.Fatalf("trial %d: supernode %d: negative padding %d", trial, s, pad)
			}
			frac := float64(pad) / float64(max(panel, 1))
			if pad != 0 && frac > amalgZeroFrac && !(width <= amalgMaxTiny && frac <= amalgTinyFrac) {
				t.Fatalf("trial %d: supernode %d: padding %d/%d over budget (width %d)", trial, s, pad, panel, width)
			}
		}
		if trueEntries != f.lp[n] {
			t.Fatalf("trial %d: supernode columns cover %d entries, want nnz(L) = %d", trial, trueEntries, f.lp[n])
		}
	}
}

// TestSupernodalMatchesScalarBits factors random problems with the
// supernodal kernels and with the scalar reference and demands exact
// Float64bits agreement on L, D, single solves and batched solves.  The
// supernodal factor is first computed at a second random ρ, so the
// checked factor overwrites live panels in place, as every ρ move of a
// solve does.  The last trials append few rows, so most columns are
// lone and the sweeps take their run path.
func TestSupernodalMatchesScalarBits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 18; trial++ {
		n := 30 + rng.Intn(100)
		extra := n + rng.Intn(n)
		if trial >= 12 {
			extra = rng.Intn(n / 4)
		}
		f := randomFactor(rng, n, extra)
		if trial >= 12 {
			lone := 0
			for s, e := range f.loneEnd {
				if e > s {
					lone++
				}
			}
			if lone == 0 {
				t.Fatalf("trial %d: no lone supernode among %d rows over %d columns", trial, extra, n)
			}
		}
		rho, first := math.Exp(rng.NormFloat64()), math.Exp(rng.NormFloat64())
		if err := f.Refactor(first); err != nil {
			t.Fatalf("trial %d: refactor at the first ρ: %v", trial, err)
		}
		if err := f.Refactor(rho); err != nil {
			t.Fatalf("trial %d: refactor: %v", trial, err)
		}
		lx, d := scalarFactor(t, f, rho)

		gotL := f.factorL()
		for p := range lx {
			if math.Float64bits(gotL[p]) != math.Float64bits(lx[p]) {
				t.Fatalf("trial %d: L[%d] = %x, scalar %x", trial, p, math.Float64bits(gotL[p]), math.Float64bits(lx[p]))
			}
		}
		for k := range d {
			if math.Float64bits(f.d[k]) != math.Float64bits(d[k]) {
				t.Fatalf("trial %d: D[%d] = %x, scalar %x", trial, k, math.Float64bits(f.d[k]), math.Float64bits(d[k]))
			}
		}

		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := make([]float64, n)
		scalarSolve(f, lx, d, want, b)
		got := make([]float64, n)
		solve1(f, got, b)
		diffCount := 0
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				diffCount++
			}
		}
		if diffCount > 0 {
			t.Fatalf("trial %d: serial solve differs from scalar reference at %d/%d entries", trial, diffCount, n)
		}

		// Batched solves: every RHS bitwise equal to its solo solve.
		const nrhs = 5
		bs := make([][]float64, nrhs)
		wantq := make([][]float64, nrhs)
		for q := range bs {
			bs[q] = make([]float64, n)
			for i := range bs[q] {
				bs[q][i] = rng.NormFloat64()
			}
			wantq[q] = make([]float64, n)
			solve1(f, wantq[q], bs[q])
		}
		xs := make([][]float64, nrhs)
		for q := range xs {
			xs[q] = make([]float64, n)
		}
		f.SolveBatch(xs, bs)
		for q := range xs {
			for i := range xs[q] {
				if math.Float64bits(xs[q][i]) != math.Float64bits(wantq[q][i]) {
					t.Fatalf("trial %d: batch rhs %d differs at %d", trial, q, i)
				}
			}
		}
	}
}
