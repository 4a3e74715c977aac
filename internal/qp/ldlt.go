// Sparse LDLᵀ factorization of the ADMM KKT matrix K = P + σI + ρAᵀA.
//
// The factorization is split the classical way:
//
//   - the SYMBOLIC phase — merged nonzero pattern of P and AᵀA, a
//     fill-reducing ordering (generalized nested dissection vs reverse
//     Cuthill–McKee, whichever the exact symbolic count predicts is
//     cheaper), the elimination tree and per-column fill counts —
//     depends only on the sparsity structure and is computed once per
//     Solver, then refreshed when cut-row appends merge new cliques in;
//   - the NUMERIC phase re-runs only when ρ changes (adaptive-ρ steps
//     and stall restarts) or when constraint rows are appended, reusing
//     the symbolic analysis every time.
//
// Between refactorizations every ADMM x-step is two sparse triangular
// solves plus a diagonal scale — O(nnz(L)) with no inner iteration.
// On the cut-generation hot path the cut QP's KKT matrix is
// τ-invariant, so whole bisection probes run on a single factor.
//
// The numeric phase is SUPERNODAL: the symbolic phase groups maximal
// chains of elimination-tree columns with identical below-diagonal
// pattern (relaxed by amalgamation up to a small fill budget, see
// amalgMaxTiny/amalgZeroFrac) into supernodes, and stores each
// supernode's columns contiguously in a dense column-major panel.  The
// left-looking kernel then assembles column k of L from the lower
// column k of K minus one update per nonzero of row k of L — external
// updates stream the SOURCE supernode's panel contiguously, internal
// updates are dense rank-1 sweeps inside the panel — and the
// triangular solves run as dense unit-lower diagonal-block solves plus
// dense panel-times-vector updates, two contiguous arrays instead of
// the scalar gather through li/lx.  Padded panel slots introduced by
// amalgamation hold exact zeros, whose updates are bitwise inert, so
// the per-element accumulation order of the factor and the forward
// solve (ascending source column, fixed by the symbolic views) is
// unchanged from the scalar kernel.  The backward solve subtracts each
// column's below-supernode terms before its in-supernode terms (see
// bwdSuper), so its order, and with it the solution's bits, depends on
// where the supernode boundaries fall.  The supernodal factor and
// solves match the scalar reference, which follows the same
// convention, bit for bit.
// No pivoting is needed because K is symmetric positive definite for
// σ > 0, ρ > 0.
//
// Every kernel runs on the calling goroutine.  The ADMM loop that
// drives a factor is inherently sequential, and the level sets of the
// elimination tree are too small for a fork/join per level to pay, so
// callers parallelize across independent solves instead.
//
// Multi-RHS solves (SolveBatch) stream the factor through cache once
// per supernode for the whole right-hand-side block instead of once
// per RHS — the wafer consensus loop batches its per-member x-steps
// through this path.
package qp

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ldltFactor holds the symbolic analysis and, after Refactor, the
// numeric factors of K = P + σI + ρAᵀA under a fill-reducing
// permutation.
type ldltFactor struct {
	n int

	// perm maps factor position → original index; iperm is its inverse.
	perm, iperm []int

	// Upper-triangular pattern of the permuted K in compressed-sparse-
	// column form (diagonal included, rows sorted within a column).
	// The numeric values split into a ρ-independent part (P + σI) and
	// the AᵀA part, so a ρ change re-assembles K in O(nnz) without
	// touching P or A.
	kp      []int // column pointers, len n+1
	ki      []int // row indices, len nnz
	baseVal []float64
	ataVal  []float64

	// Symbolic output: elimination tree and per-column counts of L.
	parent []int
	lnz    []int
	lp     []int // column pointers of L, len n+1

	// Pattern of the strictly lower L (CSC, rows sorted ascending
	// within a column, filled symbolically) and the numeric diagonal D.
	// The numeric off-diagonal values live in the supernodal panels
	// (px); cscPos maps each CSC position into its panel slot.
	li []int
	d  []float64

	// Supernodal partition: supernode s covers columns
	// [sPtr[s], sPtr[s+1]) and snode[k] is the supernode of column k.
	// sRows[sRowPtr[s]:sRowPtr[s+1]] are the below-panel rows of
	// supernode s — the structure of its LAST column, which contains
	// every member column's structure below the panel (the columns form
	// an etree chain).
	sPtr    []int
	snode   []int
	sRowPtr []int
	sRows   []int

	// Dense panels: supernode s with width w and r below-panel rows is
	// a column-major w×(w+r) panel at px[pOff[s]:pOff[s]+w*(w+r)].
	// Column k of the supernode (kk = k−sPtr[s], leading dimension
	// ld = w+r) stores L[sPtr[s]+i, k] at slot kk*ld+i for i in (kk, w)
	// and L[sRows[i−w], k] at slot kk*ld+i for i in [w, ld).  Slots on
	// or above the diagonal and slots padded in by amalgamation hold
	// exact zeros, whose updates are bitwise inert.  cscPos[p] is the
	// panel slot of CSC position p; rowSlot[t] = cscPos[rowPos[t]]
	// addresses panels straight from the row-major view.  extEnd[k]
	// splits row k of L into external entries (source column in an
	// earlier supernode, t < extEnd[k]) and internal ones.
	pOff    []int
	px      []float64
	cscPos  []int
	rowSlot []int
	extEnd  []int

	// Analytics from the supernodal symbolic phase: dense-equivalent
	// flop counts of one numeric factorization (Σ lnz·(lnz+3)) and of
	// one two-sweep triangular solve (4·Σ panel entries), the widest
	// supernode, and the longest below-panel row list (solve-scratch
	// size).
	denseFactorFlops int64
	denseSolveFlops  int64
	maxSuperCols     int
	maxRows          int

	// loneEnd[s] is the end (exclusive) of the run of lone diagonal
	// supernodes that starts at s — single columns with no entries
	// below the diagonal, which the triangular sweeps only scale by D —
	// and s itself when supernode s is not lone.  Cut QPs that start
	// from their box rows leave most columns lone, so the sweeps take
	// each run in one tight loop.
	loneEnd []int

	// Row-major view of the strictly lower L: row k holds the columns
	// j < k with L[k,j] ≠ 0 (ascending j) and, aligned, the position of
	// that entry inside li.  This is the external-update list of the
	// left-looking numeric kernel.
	rowPtr []int // len n+1
	rowCol []int
	rowPos []int

	// Lower-triangular view of the stored upper K pattern: lower column
	// k lists the columns c ≥ k with K[k,c] ≠ 0 (ascending, diagonal
	// first) and the source position in baseVal/ataVal, so the numeric
	// kernel scatters K's column without searching the upper CSC.
	lowPtr []int // len n+1
	lowRow []int
	lowSrc []int

	// Scratch reused across factorizations and solves.  w backs the
	// numeric kernel; tt is the below-panel gather buffer of the
	// triangular sweeps (len maxRows); wb holds one dense workspace per
	// right-hand side of a solve.
	flag []int
	w    []float64
	tt   []float64
	wb   [][]float64

	// Symbolic-phase storage, reused by every AppendRows of the factor
	// and, through the solver storage pool, by later factors: the
	// clique entry list, the spare pattern arrays that the merge and the
	// relabelling write into before they swap with kp/ki/baseVal/ataVal,
	// the spare permutation, a per-column scratch (the cursor of
	// fillSymbolic and patternAdjacency, relabel's inverse order),
	// buildSupernodes' fundamental blocks and count prefix sums, and the
	// ordering workspace with its graph.
	ents         []upperEntry
	kp2, ki2     []int
	base2, ata2  []float64
	perm2, next  []int
	fund, lnzSum []int
	ow           orderWork
}

// upperEntry is one upper-triangular entry contribution before
// compilation: (row, col) in permuted coordinates with row ≤ col.
type upperEntry struct {
	row, col int
	base     float64
	ata      float64
}

// cmpColRow orders entries by column, then row: the CSC-upper pattern
// order.  The sort is not stable, so duplicate (row, col) entries are
// summed in the order pdqsort leaves them.  slices.SortFunc runs the
// same generated pdqsort as sort.Slice with the matching less function,
// so that order, and the summed bits, are the same for both
// (TestSortFuncMatchesSortSlice).
func cmpColRow(a, b upperEntry) int {
	if a.col != b.col {
		return cmp.Compare(a.col, b.col)
	}
	return cmp.Compare(a.row, b.row)
}

// analyze runs the symbolic analysis for K = P + σI + ρAᵀA over the
// patterns of p (may be nil) and a (may have zero rows) into f and
// returns f.  It builds into whatever storage f holds from an earlier
// analysis, so the result does not depend on it.  No numeric work
// happens here; call Refactor with a concrete ρ before SolveBatch.
//
// A K without off-diagonal entries (a cut QP's first build, whose A
// holds only box rows) has an edgeless adjacency, on which both
// orderings return the identity with zero fill and nested dissection
// wins the tie (TestDiagonalKSkipsOrderings), so it takes the identity
// directly.
func (f *ldltFactor) analyze(p *CSR, sigma float64, a *CSR, n int) *ldltFactor {
	f.n = n
	f.sizeColumns()
	if adj := f.ow.adjacencyOf(p, a, n); len(adj.Col) > 0 {
		order, _ := f.ow.bestOrder(adj)
		copy(f.perm, order)
	} else {
		for k := range f.perm {
			f.perm[k] = k
		}
	}
	for k, v := range f.perm {
		f.iperm[v] = k
	}
	f.ents = collectUpper(f.ents[:0], p, sigma, a, n, f.iperm)
	f.compilePattern(f.ents)
	f.symbolic()
	return f
}

// sizeColumns sizes every per-column array for f.n columns.  Their
// contents are unspecified: each phase writes an entry before it reads
// it, and clears what it accumulates into.
func (f *ldltFactor) sizeColumns() {
	n := f.n
	f.perm, f.iperm, f.perm2 = grow(f.perm, n), grow(f.iperm, n), grow(f.perm2, n)
	f.parent, f.lnz, f.flag, f.next = grow(f.parent, n), grow(f.lnz, n), grow(f.flag, n), grow(f.next, n)
	f.lp = grow(f.lp, n+1)
	f.w, f.d = grow(f.w, n), grow(f.d, n)
	for q := range f.wb {
		f.wb[q] = grow(f.wb[q], n)
	}
}

// orderWork is the workspace of the fill-reducing orderings: the graph
// they run on, nested dissection's and RCM's state, both orders, and
// the fill count's elimination-tree arrays.  A factor keeps one across
// its AppendRows calls, and the solver storage pool across factors, so
// an ordering allocates only when its graph outgrows every earlier one.
// The orders bestOrder, ndOrder and rcmOrder return, and the graph
// adjacencyOf returns, live in the workspace and stay valid until its
// next call of the same method.
type orderWork struct {
	// adj is the graph adjacencyOf or patternAdjacency builds, g the
	// graph the orderings run on.
	adj CSR
	g   *CSR

	// adjacencyOf's column → rows index of A and its dedup marker.
	colPtr, colRows, mark []int

	// Nested dissection: each vertex's subgraph id, the BFS levels and
	// queue (RCM's queue too), the neighbour buffer of the
	// Cuthill–McKee sweeps, the next free subgraph id, and the frame
	// stack that holds each recursion's vertex lists (see push).
	sub, level, queue, nbuf, stack []int
	nextID                         int

	// Vertex degrees, RCM's start order and byDegree's counts.
	deg, keys, at []int
	visited       []bool

	// The two candidate orders.
	nd, rcm []int

	// fillOf's inverse permutation and elimination tree.
	iperm, parent, flag []int
}

// ndLeafSize is the subgraph size at which nested dissection stops
// splitting and orders by Cuthill–McKee.
const ndLeafSize = 32

// bestOrder evaluates the two candidate fill-reducing orderings —
// nested dissection and reverse Cuthill–McKee — against the exact
// symbolic fill count and keeps the cheaper factor.  On the grid-
// Laplacian smoothness structure the O(√n) dissection separators beat
// RCM's bandwidth ordering decisively (every ADMM iteration sweeps
// nnz(L) twice, so predicted fill is exactly the cost that matters);
// RCM remains better on long path-like patterns.
func (w *orderWork) bestOrder(adj *CSR) ([]int, int) {
	nd := w.ndOrder(adj)
	rcm := w.rcmOrder(adj)
	fnd, frcm := w.fillOf(adj, nd), w.fillOf(adj, rcm)
	if fnd <= frcm {
		return nd, fnd
	}
	return rcm, frcm
}

// fillOf counts nnz(L) for a candidate ordering directly from the
// adjacency structure via the elimination-tree flag-path walk — no
// pattern compilation, O(nnz(K)) plus path lengths.
func (w *orderWork) fillOf(adj *CSR, perm []int) int {
	n := adj.N
	w.iperm, w.parent, w.flag = grow(w.iperm, n), grow(w.parent, n), grow(w.flag, n)
	iperm, parent, flag := w.iperm, w.parent, w.flag
	for k, v := range perm {
		iperm[v] = k
	}
	nnz := 0
	for k := 0; k < n; k++ {
		parent[k] = -1
		flag[k] = k
		v := perm[k]
		for p := adj.RowPtr[v]; p < adj.RowPtr[v+1]; p++ {
			i := iperm[adj.Col[p]]
			if i >= k {
				continue
			}
			for ; flag[i] != k; i = parent[i] {
				if parent[i] == -1 {
					parent[i] = k
				}
				nnz++
				flag[i] = k
			}
		}
	}
	return nnz
}

// adjacencyOf builds the symmetric adjacency structure of K (off-
// diagonal pattern of P plus the per-row cliques of A) as a CSR graph
// whose rows list their columns ascending, once each (Val is nil: the
// orderings read the pattern only).  Vertex v gathers its neighbours
// from row v of P and from every row of A that holds column v, found
// through a column → rows index of A and deduplicated by a marker.  A
// row of A that holds column v more than once makes v its own
// neighbour, as the clique of such a row does.  The graph is w.adj.
func (w *orderWork) adjacencyOf(p *CSR, a *CSR, n int) *CSR {
	var colPtr, colRows []int
	if a != nil {
		w.colPtr = grow(w.colPtr, n+1)
		colPtr = w.colPtr
		clear(colPtr)
		for _, c := range a.Col {
			colPtr[c+1]++
		}
		for c := 0; c < n; c++ {
			colPtr[c+1] += colPtr[c]
		}
		w.colRows = grow(w.colRows, len(a.Col))
		colRows = w.colRows
		for r := 0; r < a.M; r++ {
			for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
				c := a.Col[k]
				colRows[colPtr[c]] = r
				colPtr[c]++
			}
		}
		// The fill pass advanced colPtr[c] to the start of column c+1.
		copy(colPtr[1:], colPtr[:n])
		colPtr[0] = 0
	}
	w.mark = grow(w.mark, n)
	mark := w.mark
	for i := range mark {
		mark[i] = -1
	}
	adj := &w.adj
	*adj = CSR{M: n, N: n, RowPtr: grow(adj.RowPtr, n+1), Col: adj.Col[:0]}
	adj.RowPtr[0] = 0
	add := func(v, c int) {
		if mark[c] != v {
			mark[c] = v
			adj.Col = append(adj.Col, c)
		}
	}
	for v := 0; v < n; v++ {
		start := len(adj.Col)
		if p != nil {
			for k := p.RowPtr[v]; k < p.RowPtr[v+1]; k++ {
				if c := p.Col[k]; c != v {
					add(v, c)
				}
			}
		}
		if a != nil {
			for i := colPtr[v]; i < colPtr[v+1]; i++ {
				r := colRows[i]
				if i > colPtr[v] && colRows[i-1] == r {
					add(v, v) // v occurs twice in row r
					continue
				}
				for k := a.RowPtr[r]; k < a.RowPtr[r+1]; k++ {
					if c := a.Col[k]; c != v {
						add(v, c)
					}
				}
			}
		}
		slices.Sort(adj.Col[start:])
		adj.RowPtr[v+1] = len(adj.Col)
	}
	return adj
}

// patternAdjacency builds the symmetric adjacency structure of the
// stored upper pattern of K by a counting transpose, with Val nil.
// Row v lists its lower neighbours (column v of the pattern, ascending)
// and then its upper neighbours (the later columns that hold row v, in
// column order), so every row comes out sorted without a sort.  The
// graph is the ordering workspace's.
func (f *ldltFactor) patternAdjacency() *CSR {
	n := f.n
	adj := &f.ow.adj
	*adj = CSR{M: n, N: n, RowPtr: grow(adj.RowPtr, n+1), Col: adj.Col}
	clear(adj.RowPtr)
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			if r := f.ki[p]; r != c {
				adj.RowPtr[r+1]++
				adj.RowPtr[c+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		adj.RowPtr[v+1] += adj.RowPtr[v]
	}
	adj.Col = grow(adj.Col, adj.RowPtr[n])
	next := f.next
	copy(next, adj.RowPtr[:n])
	// Column c fills row c's lower part and appends c to each row r < c
	// it holds.  Row r's lower part was filled at column r, before any
	// later column appends to it, so every row comes out ascending.
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			if r := f.ki[p]; r != c {
				adj.Col[next[c]] = r
				next[c]++
				adj.Col[next[r]] = c
				next[r]++
			}
		}
	}
	return adj
}

// rcmOrder returns a reverse Cuthill–McKee ordering of the graph: BFS
// from a low-degree peripheral node, neighbors visited in increasing-
// degree order, then the whole order reversed.  RCM concentrates the
// grid-Laplacian smoothness structure into a narrow band, which keeps
// LDLᵀ fill close to the bandwidth.
//
// Each component starts at its unvisited vertex of least (degree,
// index), a cheap deterministic pseudo-peripheral choice.  The
// vertices are counting-sorted by that key once and the starts taken
// in one forward scan, so a pattern of many components (at the first
// cut round most vertices are isolated) costs O(n), not a rescan of
// every vertex per component.
func (w *orderWork) rcmOrder(adj *CSR) []int {
	n := adj.N
	w.deg = grow(w.deg, n)
	deg := w.deg
	for v := 0; v < n; v++ {
		deg[v] = adj.RowPtr[v+1] - adj.RowPtr[v]
	}
	order := grow(w.rcm, n)[:0]
	w.visited = grow(w.visited, n)
	visited := w.visited
	clear(visited)
	queue, nbuf := grow(w.queue, n)[:0], w.nbuf[:0]
	w.keys = w.byDegree(grow(w.keys, n), deg)
	for _, start := range w.keys {
		if visited[start] {
			continue
		}
		visited[start] = true
		queue = append(queue[:0], start)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			order = append(order, v)
			nbuf = nbuf[:0]
			for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
				if u := adj.Col[k]; !visited[u] {
					visited[u] = true
					nbuf = append(nbuf, u)
				}
			}
			slices.SortFunc(nbuf, func(a, b int) int {
				if deg[a] != deg[b] {
					return cmp.Compare(deg[a], deg[b])
				}
				return cmp.Compare(a, b)
			})
			queue = append(queue, nbuf...)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	w.rcm, w.queue, w.nbuf = order, queue, nbuf
	return order
}

// byDegree writes 0..len(deg)−1 ordered by (deg[i], i) into out (of
// length len(deg)) and returns it: a stable counting sort, O(len(deg) +
// max degree).
func (w *orderWork) byDegree(out, deg []int) []int {
	maxDeg := 0
	for _, d := range deg {
		maxDeg = max(maxDeg, d)
	}
	w.at = grow(w.at, maxDeg+2)
	at := w.at
	clear(at)
	for _, d := range deg {
		at[d+1]++
	}
	for d := 1; d < len(at); d++ {
		at[d] += at[d-1]
	}
	for i, d := range deg {
		out[at[d]] = i
		at[d]++
	}
	return out
}

// ndOrder returns a generalized nested-dissection ordering (George &
// Liu's automatic scheme): recursively split each subgraph on the
// middle level set of a pseudo-peripheral BFS, number the separator
// last, and Cuthill–McKee the small leaves.  On a w×w grid Laplacian
// the separators are O(w) while RCM's band is O(w) PER ROW, so the
// factor fill drops from O(n·w) toward O(n log n).  Everything is
// index-deterministic: component roots and BFS tie-breaks follow
// vertex order, never map iteration.
func (w *orderWork) ndOrder(adj *CSR) []int {
	n := adj.N
	w.g = adj
	w.sub = grow(w.sub, n) // vertex → current subgraph id (always ≥ 1)
	for i := range w.sub {
		w.sub[i] = 1
	}
	w.level = grow(w.level, n)
	w.queue = grow(w.queue, n)[:0]
	w.nd = grow(w.nd, n)[:0]
	w.nextID = 2
	all := w.push(n)
	for v := range all {
		all[v] = v
	}
	w.rec(all, 1)
	w.stack = w.stack[:0]
	return w.nd
}

// push reserves k ints on top of the frame stack and returns them; the
// frame pops them by truncating the stack to its length before the
// push.  A push that outgrows the stack moves it to a larger array, but
// the frames below keep their slices of the old one, whose contents
// nothing writes any more.
func (w *orderWork) push(k int) []int {
	top := len(w.stack)
	w.stack = slices.Grow(w.stack, k)[:top+k]
	return w.stack[top : top+k : top+k]
}

// degree returns the number of neighbours of v in the ordered graph.
func (w *orderWork) degree(v int) int { return w.g.RowPtr[v+1] - w.g.RowPtr[v] }

// bfs runs a breadth-first sweep from root restricted to vertices with
// sub[v] == id, filling queue with the visited set in order and level
// with BFS depths.  Returns the number of levels.
func (w *orderWork) bfs(root, id int) int {
	adj, sub, level := w.g, w.sub, w.level
	queue := append(w.queue[:0], root)
	level[root] = 0
	sub[root] = -id // negative marks visited-within-this-sweep
	depth := 0
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
			if u := adj.Col[k]; sub[u] == id {
				sub[u] = -id
				level[u] = level[v] + 1
				depth = level[u]
				queue = append(queue, u)
			}
		}
	}
	for _, v := range queue {
		sub[v] = id
	}
	w.queue = queue
	return depth + 1
}

// cmLeaf appends a Cuthill–McKee order of the (possibly disconnected)
// subgraph id to the nested-dissection order.
func (w *orderWork) cmLeaf(verts []int, id int) {
	adj, sub := w.g, w.sub
	for {
		root := -1
		for _, v := range verts {
			if sub[v] != id {
				continue
			}
			if root < 0 || w.degree(v) < w.degree(root) {
				root = v
			}
		}
		if root < 0 {
			return
		}
		queue := append(w.queue[:0], root)
		sub[root] = -id
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			w.nd = append(w.nd, v)
			nbuf := w.nbuf[:0]
			for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
				if u := adj.Col[k]; sub[u] == id {
					sub[u] = -id
					nbuf = append(nbuf, u)
				}
			}
			slices.Sort(nbuf)
			queue = append(queue, nbuf...)
			w.nbuf = nbuf
		}
		w.queue = queue
	}
}

// peel orders a disconnected subgraph whose BFS from its root just
// filled queue with the first component.  Component by component, each
// is recursed on by itself, and the next one is rooted at the remaining
// vertex of least (degree, position in verts).  Once the remainder is a
// leaf or connected it is recursed on as a whole, in verts order.  The
// positions are counting-sorted by that key once and the roots taken in
// one forward scan, so a subgraph of s vertices costs O(s + its largest
// degree), not one copy of the remainder per component.
func (w *orderWork) peel(verts []int, id int) {
	sub := w.sub
	top := len(w.stack)
	w.deg = grow(w.deg, len(verts))
	for i, v := range verts {
		w.deg[i] = w.degree(v)
	}
	keys := w.byDegree(w.push(len(verts)), w.deg)
	left, next := len(verts), 0
	for {
		comp := w.push(len(w.queue))
		copy(comp, w.queue)
		compID := w.nextID
		w.nextID++
		for _, v := range comp {
			sub[v] = compID
		}
		w.rec(comp, compID)
		w.stack = w.stack[:top+len(keys)]
		left -= len(comp)
		if left <= ndLeafSize {
			break
		}
		for sub[verts[keys[next]]] != id {
			next++
		}
		if w.bfs(verts[keys[next]], id); len(w.queue) == left {
			break
		}
	}
	rest := w.push(left)[:0]
	for _, v := range verts {
		if sub[v] == id {
			rest = append(rest, v)
		}
	}
	restID := w.nextID
	w.nextID++
	for _, v := range rest {
		sub[v] = restID
	}
	w.rec(rest, restID)
	w.stack = w.stack[:top]
}

// rec orders subgraph id, whose vertices are verts: a leaf by
// Cuthill–McKee, a disconnected one by peel, otherwise the two sides of
// the middle BFS level and then that level, the separator.  The sides
// and the separator keep their BFS order in one frame.
func (w *orderWork) rec(verts []int, id int) {
	if len(verts) <= ndLeafSize {
		w.cmLeaf(verts, id)
		return
	}
	// Pseudo-peripheral root: BFS from the min-degree vertex, then once
	// more from the deepest last-visited vertex.
	root := verts[0]
	for _, v := range verts {
		if w.degree(v) < w.degree(root) {
			root = v
		}
	}
	depth := w.bfs(root, id)
	if len(w.queue) < len(verts) {
		w.peel(verts, id)
		return
	}
	if far := w.queue[len(w.queue)-1]; far != root {
		depth = w.bfs(far, id)
	}
	if depth < 3 {
		w.cmLeaf(verts, id)
		return
	}
	mid := depth / 2
	level, sub := w.level, w.sub
	top := len(w.stack)
	seg := w.push(len(w.queue))
	nl, nr := 0, 0
	for _, v := range w.queue {
		switch {
		case level[v] < mid:
			nl++
		case level[v] > mid:
			nr++
		}
	}
	l, r, s := 0, nl, nl+nr
	for _, v := range w.queue {
		switch {
		case level[v] < mid:
			seg[l] = v
			l++
		case level[v] > mid:
			seg[r] = v
			r++
		default:
			seg[s] = v
			s++
		}
	}
	left, right, sep := seg[:nl], seg[nl:nl+nr], seg[nl+nr:]
	leftID, rightID := w.nextID, w.nextID+1
	w.nextID += 2
	for _, v := range left {
		sub[v] = leftID
	}
	for _, v := range right {
		sub[v] = rightID
	}
	w.rec(left, leftID)
	w.rec(right, rightID)
	slices.Sort(sep)
	w.nd = append(w.nd, sep...)
	w.stack = w.stack[:top]
}

// collectUpper appends to ents the upper-triangular entries of the
// permuted K, with the P + σI contribution and the AᵀA contribution
// kept separate, and returns it.  P must be stored symmetrically (both
// halves); only its i ≤ j half is read so each logical entry
// contributes once.
func collectUpper(ents []upperEntry, p *CSR, sigma float64, a *CSR, n int, iperm []int) []upperEntry {
	put := func(i, j int, base, ata float64) {
		pi, pj := iperm[i], iperm[j]
		if pi > pj {
			pi, pj = pj, pi
		}
		ents = append(ents, upperEntry{row: pi, col: pj, base: base, ata: ata})
	}
	for j := 0; j < n; j++ {
		put(j, j, sigma, 0)
	}
	if p != nil {
		for r := 0; r < p.M; r++ {
			for k := p.RowPtr[r]; k < p.RowPtr[r+1]; k++ {
				if c := p.Col[k]; r <= c {
					put(r, c, p.Val[k], 0)
				}
			}
		}
	}
	if a != nil {
		ents = ataEntries(ents, a, 0, iperm)
	}
	return ents
}

// ataEntries appends to ents the upper-triangular AᵀA contributions of
// rows [fromRow, a.M) in permuted coordinates, each constraint row a
// clique over its columns, and returns it.
func ataEntries(ents []upperEntry, a *CSR, fromRow int, iperm []int) []upperEntry {
	for r := fromRow; r < a.M; r++ {
		lo, hi := a.RowPtr[r], a.RowPtr[r+1]
		for i := lo; i < hi; i++ {
			for j := i; j < hi; j++ {
				pi, pj := iperm[a.Col[i]], iperm[a.Col[j]]
				if pi > pj {
					pi, pj = pj, pi
				}
				ents = append(ents, upperEntry{row: pi, col: pj, ata: a.Val[i] * a.Val[j]})
			}
		}
	}
	return ents
}

// compilePattern sorts and deduplicates entries into the CSC-upper
// pattern with the two aligned value streams.
func (f *ldltFactor) compilePattern(ents []upperEntry) {
	slices.SortFunc(ents, cmpColRow)
	f.kp = grow(f.kp, f.n+1)
	clear(f.kp)
	f.ki = f.ki[:0]
	f.baseVal = f.baseVal[:0]
	f.ataVal = f.ataVal[:0]
	for i := 0; i < len(ents); {
		j := i + 1
		base, ata := ents[i].base, ents[i].ata
		for j < len(ents) && ents[j].col == ents[i].col && ents[j].row == ents[i].row {
			base += ents[j].base
			ata += ents[j].ata
			j++
		}
		f.ki = append(f.ki, ents[i].row)
		f.baseVal = append(f.baseVal, base)
		f.ataVal = append(f.ataVal, ata)
		f.kp[ents[i].col+1]++
		i = j
	}
	for c := 0; c < f.n; c++ {
		f.kp[c+1] += f.kp[c]
	}
}

// mergeAppended folds extra AᵀA entries (already permuted, upper, from
// appended constraint rows) into the existing pattern: the two sorted
// streams merge column by column into the spare pattern arrays, which
// then swap with the live ones; existing slots accumulate and new slots
// carry a zero base value.  Neither the ordering nor the symbolic
// analysis is refreshed here; reorder does both.
func (f *ldltFactor) mergeAppended(extra []upperEntry) {
	if len(extra) == 0 {
		return
	}
	slices.SortFunc(extra, cmpColRow)
	// Deduplicate the extra stream first.
	dst := 0
	for i := 0; i < len(extra); {
		j := i + 1
		e := extra[i]
		for j < len(extra) && extra[j].col == e.col && extra[j].row == e.row {
			e.ata += extra[j].ata
			j++
		}
		extra[dst] = e
		dst++
		i = j
	}
	extra = extra[:dst]

	size := len(f.ki) + len(extra)
	newKP := grow(f.kp2, f.n+1)
	newKP[0] = 0
	newKI := slices.Grow(f.ki2[:0], size)
	newBase := slices.Grow(f.base2[:0], size)
	newATA := slices.Grow(f.ata2[:0], size)
	xi := 0
	for c := 0; c < f.n; c++ {
		p := f.kp[c]
		end := f.kp[c+1]
		for p < end || (xi < len(extra) && extra[xi].col == c) {
			switch {
			case xi >= len(extra) || extra[xi].col != c || (p < end && f.ki[p] < extra[xi].row):
				newKI = append(newKI, f.ki[p])
				newBase = append(newBase, f.baseVal[p])
				newATA = append(newATA, f.ataVal[p])
				p++
			case p < end && f.ki[p] == extra[xi].row:
				newKI = append(newKI, f.ki[p])
				newBase = append(newBase, f.baseVal[p])
				newATA = append(newATA, f.ataVal[p]+extra[xi].ata)
				p++
				xi++
			default:
				newKI = append(newKI, extra[xi].row)
				newBase = append(newBase, 0)
				newATA = append(newATA, extra[xi].ata)
				xi++
			}
		}
		newKP[c+1] = len(newKI)
	}
	f.kp, f.kp2 = newKP, f.kp
	f.ki, f.ki2 = newKI, f.ki
	f.baseVal, f.base2 = newBase, f.baseVal
	f.ataVal, f.ata2 = newATA, f.ataVal
}

// AppendRows extends the pattern with the AᵀA cliques of rows
// [fromRow, a.M) of the (scaled) constraint matrix, recomputes the
// fill-reducing ordering for the merged pattern, and re-runs the
// symbolic analysis once, for whichever ordering reorder keeps.
// Re-ordering costs one graph traversal per append — appends are rare
// (once per cut round) while every ADMM iteration pays nnz(L) twice,
// and cut cliques merged into a stale permutation can double the fill.
// The caller must Refactor before the next SolveBatch.
func (f *ldltFactor) AppendRows(a *CSR, fromRow int) {
	f.ents = ataEntries(f.ents[:0], a, fromRow, f.iperm)
	f.mergeAppended(f.ents)
	f.reorder()
}

// reorder recomputes the fill-reducing permutation from the current
// merged pattern and keeps it when it predicts less fill than the
// merged-in-place ordering, composing the new relative order onto the
// existing permutation and relabelling the pattern.  Either way it
// ends with one symbolic analysis of the kept pattern.  The in-place
// fill comes from the elimination-tree walk alone, so a losing
// candidate costs no fill pattern, views or supernodes.  Needs no
// access to the original P and A: the stored pattern and split values
// carry everything.
func (f *ldltFactor) reorder() {
	n := f.n
	merged := f.etree()
	rel, relFill := f.ow.bestOrder(f.patternAdjacency())
	if relFill >= merged {
		// The merged-in-place ordering is already at least as good, and
		// etree has analysed it.
		f.fillSymbolic()
		return
	}
	for k := 0; k < n; k++ {
		f.perm2[k] = f.perm[rel[k]]
	}
	f.perm, f.perm2 = f.perm2, f.perm
	for k, v := range f.perm {
		f.iperm[v] = k
	}
	f.relabel(rel)
	f.symbolic()
}

// relabel rewrites the stored pattern for the relative order rel: entry
// (r, c) moves to (irel[r], irel[c]), swapped into the upper triangle.
// A permutation maps the deduplicated pattern to one without
// duplicates, so there is nothing to sum and the relabelled pattern is
// fixed by its positions alone: two counting passes build it without a
// sort.  The first buckets the entries by new row into the spare
// arrays, the second walks the rows ascending and scatters each entry
// into its new column, so every column's rows come out sorted.
func (f *ldltFactor) relabel(rel []int) {
	n, nnz := f.n, len(f.ki)
	irel := f.next
	for k, v := range rel {
		irel[v] = k
	}
	rowPtr := grow(f.kp2, n+1)
	clear(rowPtr)
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			rowPtr[min(irel[f.ki[p]], irel[c])+1]++
		}
	}
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	colOf := grow(f.ki2, nnz)
	base, ata := grow(f.base2, nnz), grow(f.ata2, nnz)
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			pi, pj := irel[f.ki[p]], irel[c]
			if pi > pj {
				pi, pj = pj, pi
			}
			slot := rowPtr[pi]
			colOf[slot], base[slot], ata[slot] = pj, f.baseVal[p], f.ataVal[p]
			rowPtr[pi]++
		}
	}
	// The fill advanced rowPtr[r] to the start of row r+1.
	copy(rowPtr[1:], rowPtr[:n])
	rowPtr[0] = 0

	kp := f.kp
	clear(kp)
	for _, c := range colOf {
		kp[c+1]++
	}
	for c := 0; c < n; c++ {
		kp[c+1] += kp[c]
	}
	for r := 0; r < n; r++ {
		for t := rowPtr[r]; t < rowPtr[r+1]; t++ {
			c := colOf[t]
			slot := kp[c]
			f.ki[slot], f.baseVal[slot], f.ataVal[slot] = r, base[t], ata[t]
			kp[c]++
		}
	}
	copy(kp[1:], kp[:n])
	kp[0] = 0
	f.kp2, f.ki2, f.base2, f.ata2 = rowPtr, colOf, base, ata
}

// symbolic computes the elimination tree and column counts of L for
// the current pattern, fills the pattern of L explicitly (row indices,
// row-major view), compiles the lower-triangular K view and the
// supernodal layout, and sizes the numeric arrays.  After symbolic
// returns, the numeric phase touches only the panels, d and its
// workspace w, so a Refactor at a given ρ always writes the same bits.
func (f *ldltFactor) symbolic() {
	f.etree()
	f.fillSymbolic()
}

// etree computes the elimination tree (parent), the per-column counts
// of L (lnz) and its column pointers (lp) for the current pattern by
// the flag-path walk, and returns nnz(L).
func (f *ldltFactor) etree() int {
	n := f.n
	for k := 0; k < n; k++ {
		f.parent[k] = -1
		f.flag[k] = k
		f.lnz[k] = 0
		for p := f.kp[k]; p < f.kp[k+1]; p++ {
			for i := f.ki[p]; f.flag[i] != k; i = f.parent[i] {
				if f.parent[i] == -1 {
					f.parent[i] = k
				}
				f.lnz[i]++
				f.flag[i] = k
			}
		}
	}
	f.lp[0] = 0
	for k := 0; k < n; k++ {
		f.lp[k+1] = f.lp[k] + f.lnz[k]
	}
	return f.lp[n]
}

// fillSymbolic is the rest of the symbolic analysis on the elimination
// tree and counts etree left: the pattern of L, its row-major view,
// the lower K view and the supernodes.
func (f *ldltFactor) fillSymbolic() {
	n := f.n
	nnz := f.lp[n]
	f.li = grow(f.li, nnz)

	// Fill li by a second flag-path walk: visiting rows k in ascending
	// order appends k to every column on the path, so each column's row
	// indices come out sorted without a sort.
	next := f.next
	clear(next)
	for k := 0; k < n; k++ {
		f.flag[k] = -1
	}
	for k := 0; k < n; k++ {
		f.flag[k] = k
		for p := f.kp[k]; p < f.kp[k+1]; p++ {
			for i := f.ki[p]; f.flag[i] != k; i = f.parent[i] {
				f.li[f.lp[i]+next[i]] = k
				next[i]++
				f.flag[i] = k
			}
		}
	}

	// Row-major view of L.  Iterating source columns in ascending order
	// makes each row's column list ascending — the fixed accumulation
	// order of the numeric kernel and the forward solve.
	f.rowPtr = grow(f.rowPtr, n+1)
	clear(f.rowPtr)
	for _, r := range f.li {
		f.rowPtr[r+1]++
	}
	for k := 0; k < n; k++ {
		f.rowPtr[k+1] += f.rowPtr[k]
	}
	f.rowCol = grow(f.rowCol, nnz)
	f.rowPos = grow(f.rowPos, nnz)
	clear(next)
	for j := 0; j < n; j++ {
		for p := f.lp[j]; p < f.lp[j+1]; p++ {
			r := f.li[p]
			slot := f.rowPtr[r] + next[r]
			f.rowCol[slot] = j
			f.rowPos[slot] = p
			next[r]++
		}
	}

	// Lower-triangular view of K: transpose the stored upper CSC into
	// per-column (row ≥ diagonal) gather lists carrying source
	// positions into baseVal/ataVal.  σI puts the diagonal in every
	// column, and ascending source columns keep it first.
	nk := len(f.ki)
	f.lowPtr = grow(f.lowPtr, n+1)
	clear(f.lowPtr)
	for _, r := range f.ki {
		f.lowPtr[r+1]++
	}
	for k := 0; k < n; k++ {
		f.lowPtr[k+1] += f.lowPtr[k]
	}
	f.lowRow = grow(f.lowRow, nk)
	f.lowSrc = grow(f.lowSrc, nk)
	clear(next)
	for c := 0; c < n; c++ {
		for p := f.kp[c]; p < f.kp[c+1]; p++ {
			r := f.ki[p]
			slot := f.lowPtr[r] + next[r]
			f.lowRow[slot] = c
			f.lowSrc[slot] = p
			next[r]++
		}
	}

	// Supernodal partition and dense panels — everything the blocked
	// numeric kernels address through.
	f.buildSupernodes()
}

// buildSupernodes partitions the columns into supernodes, lays out the
// dense panels, and compiles every index view the blocked kernels use.
//
// Detection starts from FUNDAMENTAL supernodes — column k extends the
// block of k−1 exactly when parent[k−1] == k and lnz[k−1] == lnz[k]+1,
// i.e. column k−1's below-diagonal structure is {k} ∪ struct(k) — and
// then amalgamates: a group [a..b] absorbs the next fundamental block
// ending at c when parent[b] == b+1 (the chain continues) and either
// the merged width stays at most amalgMaxTiny, or the padding the
// merge introduces stays within amalgZeroFrac of the merged panel
// (width·R + width·(width−1)/2 entries with R = lnz[c], versus
// Σ lnz[k] true entries).  Because every group is an etree chain,
// struct(k) below the group is contained in the structure of the LAST
// column, so the last column's row list is the below-panel row list of
// the whole supernode and padded slots hold exact zeros.
func (f *ldltFactor) buildSupernodes() {
	n := f.n
	nnz := f.lp[n]

	// Fundamental block starts (sentinel n closes the last block).
	fund := f.fund[:0]
	for k := 0; k < n; k++ {
		if k == 0 || f.parent[k-1] != k || f.lnz[k-1] != f.lnz[k]+1 {
			fund = append(fund, k)
		}
	}
	fund = append(fund, n)

	// Amalgamation over fundamental blocks, greedy left to right.
	lnzSum := grow(f.lnzSum, n+1)
	lnzSum[0] = 0
	for k := 0; k < n; k++ {
		lnzSum[k+1] = lnzSum[k] + f.lnz[k]
	}
	sPtr := append(f.sPtr[:0], 0)
	for bi := 0; bi+1 < len(fund); {
		a := fund[bi]
		ci := bi + 1
		for ci+1 < len(fund) {
			b := fund[ci] - 1   // last column of the current group
			c := fund[ci+1] - 1 // last column of the candidate block
			if f.parent[b] != b+1 {
				break
			}
			width := c - a + 1
			panelEntries := width*f.lnz[c] + width*(width-1)/2
			padding := panelEntries - (lnzSum[c+1] - lnzSum[a])
			frac := float64(padding) / float64(panelEntries)
			if frac > amalgZeroFrac && (width > amalgMaxTiny || frac > amalgTinyFrac) {
				break
			}
			ci++
		}
		sPtr = append(sPtr, fund[ci])
		bi = ci
	}
	f.fund, f.lnzSum, f.sPtr = fund, lnzSum, sPtr
	ns := len(sPtr) - 1

	f.snode = grow(f.snode, n)
	for s := 0; s < ns; s++ {
		for k := sPtr[s]; k < sPtr[s+1]; k++ {
			f.snode[k] = s
		}
	}

	// Below-panel rows: the structure of each supernode's last column.
	f.sRowPtr = grow(f.sRowPtr, ns+1)
	f.sRowPtr[0] = 0
	for s := 0; s < ns; s++ {
		f.sRowPtr[s+1] = f.sRowPtr[s] + f.lnz[sPtr[s+1]-1]
	}
	f.sRows = grow(f.sRows, f.sRowPtr[ns])
	for s := 0; s < ns; s++ {
		last := sPtr[s+1] - 1
		copy(f.sRows[f.sRowPtr[s]:f.sRowPtr[s+1]], f.li[f.lp[last]:f.lp[last+1]])
	}

	// Panel offsets and storage.  Padded slots must be exact zeros and
	// the numeric kernels only ever write true-entry slots, so the
	// buffer is cleared once here and stays clean forever after.
	f.pOff = grow(f.pOff, ns+1)
	off := 0
	for s := 0; s < ns; s++ {
		f.pOff[s] = off
		width := sPtr[s+1] - sPtr[s]
		off += width * (width + f.sRowPtr[s+1] - f.sRowPtr[s])
	}
	f.pOff[ns] = off
	f.px = grow(f.px, off)
	clear(f.px)

	// CSC position → panel slot.  Rows inside the panel map by offset;
	// rows below merge against the sorted sRows list.
	f.cscPos = grow(f.cscPos, nnz)
	for s := 0; s < ns; s++ {
		c0, c1 := sPtr[s], sPtr[s+1]
		width := c1 - c0
		srows := f.sRows[f.sRowPtr[s]:f.sRowPtr[s+1]]
		ld := width + len(srows)
		for k := c0; k < c1; k++ {
			colBase := f.pOff[s] + (k-c0)*ld
			ri := 0
			for p := f.lp[k]; p < f.lp[k+1]; p++ {
				if i := f.li[p]; i < c1 {
					f.cscPos[p] = colBase + (i - c0)
				} else {
					for srows[ri] != i {
						ri++
					}
					f.cscPos[p] = colBase + width + ri
				}
			}
		}
	}
	f.rowSlot = grow(f.rowSlot, nnz)
	for t, p := range f.rowPos {
		f.rowSlot[t] = f.cscPos[p]
	}

	// Split each L row into external (earlier supernode) and internal
	// entries; rowCol is ascending, so one scan finds the boundary.
	f.extEnd = grow(f.extEnd, n)
	for k := 0; k < n; k++ {
		c0 := sPtr[f.snode[k]]
		t := f.rowPtr[k]
		for t < f.rowPtr[k+1] && f.rowCol[t] < c0 {
			t++
		}
		f.extEnd[k] = t
	}

	// Analytics and scratch sizing.
	f.maxSuperCols, f.maxRows = 0, 0
	var solveFlops, factorFlops int64
	for s := 0; s < ns; s++ {
		width := sPtr[s+1] - sPtr[s]
		r := f.sRowPtr[s+1] - f.sRowPtr[s]
		if width > f.maxSuperCols {
			f.maxSuperCols = width
		}
		if r > f.maxRows {
			f.maxRows = r
		}
		solveFlops += int64(4) * int64(width*(width-1)/2+width*r)
	}
	for k := 0; k < n; k++ {
		factorFlops += int64(f.lnz[k]) * int64(f.lnz[k]+3)
	}
	f.denseSolveFlops = solveFlops
	f.denseFactorFlops = factorFlops
	f.loneEnd = grow(f.loneEnd, ns)
	for s := ns - 1; s >= 0; s-- {
		f.loneEnd[s] = s
		if sPtr[s+1]-sPtr[s] == 1 && f.sRowPtr[s+1] == f.sRowPtr[s] {
			f.loneEnd[s] = s + 1
			if s+1 < ns && f.loneEnd[s+1] > s+1 {
				f.loneEnd[s] = f.loneEnd[s+1]
			}
		}
	}
	f.tt = grow(f.tt, f.maxRows)
}

// grow returns s resized to n elements, reusing its capacity when it
// suffices and otherwise growing it the way append does (doubling small
// arrays, a quarter more for large ones), so a buffer that creeps up
// with every appended cut row reallocates a logarithmic number of
// times.  The contents are unspecified.
func grow[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// errNotPositiveDefinite reports a zero pivot during the numeric
// phase.  K = P + σI + ρAᵀA is positive definite whenever σ > 0, so
// the solve that hits one stops with this error.
var errNotPositiveDefinite = errors.New("ldlt: zero pivot (matrix not positive definite)")

// Amalgamation thresholds.  A supernode absorbs the next fundamental
// block while the explicit zeros the merge pads into the panel stay
// within amalgZeroFrac of the merged panel's entries; merges that keep
// the width at most amalgMaxTiny columns get the looser amalgTinyFrac
// budget instead, because turning width-1/2 chains into small panels
// buys more in loop overhead than the padding costs in inert flops.
// Larger values make wider panels (better dense-kernel throughput,
// more padding).  L and D do not depend on them: padded slots hold
// exact zeros whose updates are bitwise inert.  The backward solve
// does, because bwdSuper's accumulation order follows the supernode
// boundaries: on an 81×81 grid factor (6,561 columns, 7-point stencil)
// the default partition has 1,124 supernodes, and looser thresholds
// that leave 319 give bit-equal L and D but a different solution.
// Retuning any of the three therefore moves every fingerprint and
// trajectory lock.
const (
	amalgMaxTiny  = 8
	amalgZeroFrac = 0.125
	amalgTinyFrac = 0.25
)

// factorSuper runs the left-looking numeric kernel over all columns of
// supernode s: scatter the lower column k of K = base + ρ·AᵀA into the
// dense workspace, subtract one rank-1 contribution per nonzero of row
// k of L — EXTERNAL sources (earlier supernodes, t < extEnd[k]) walk
// the source panel's contiguous below-panel rows, INTERNAL sources
// (earlier columns of this panel) are dense in-panel sweeps — then
// scale by the pivot and gather into the panel column.  Per target
// element the subtraction order is ascending source column, exactly
// the scalar kernel's order (row k of L lists external then internal
// columns, both ascending), and padded source slots contribute exact-
// zero updates, so the bits match the scalar reference.  w must be
// all-zero on entry and is restored to all-zero on every path,
// including the zero-pivot abort.  Returns the failing column, or −1
// on success.
func (f *ldltFactor) factorSuper(s int, rho float64, w []float64) int {
	c0, c1 := f.sPtr[s], f.sPtr[s+1]
	width := c1 - c0
	srows := f.sRows[f.sRowPtr[s]:f.sRowPtr[s+1]]
	ld := width + len(srows)
	base := f.pOff[s]
	px := f.px
	for k := c0; k < c1; k++ {
		kk := k - c0
		for t := f.lowPtr[k]; t < f.lowPtr[k+1]; t++ {
			src := f.lowSrc[t]
			w[f.lowRow[t]] = f.baseVal[src] + rho*f.ataVal[src]
		}
		dk := w[k]
		w[k] = 0
		for t := f.rowPtr[k]; t < f.extEnd[k]; t++ {
			slot := f.rowSlot[t]
			lkj := px[slot]
			j := f.rowCol[t]
			sj := f.d[j] * lkj
			dk -= lkj * sj
			// Row k sits strictly below the source supernode's columns,
			// so it is always a below-panel row there: stream the rest
			// of that contiguous row list.
			js := f.snode[j]
			jw := f.sPtr[js+1] - f.sPtr[js]
			jrows := f.sRows[f.sRowPtr[js]:f.sRowPtr[js+1]]
			colStart := f.pOff[js] + (j-f.sPtr[js])*(jw+len(jrows))
			rr := slot - colStart - jw
			col := px[colStart+jw : colStart+jw+len(jrows)]
			for r := rr + 1; r < len(jrows); r++ {
				w[jrows[r]] -= col[r] * sj
			}
		}
		for jj := 0; jj < kk; jj++ {
			jcol := base + jj*ld
			lkj := px[jcol+kk]
			sj := f.d[c0+jj] * lkj
			dk -= lkj * sj
			for r := kk + 1; r < width; r++ {
				w[c0+r] -= px[jcol+r] * sj
			}
			bcol := px[jcol+width : jcol+ld]
			for r, i := range srows {
				w[i] -= bcol[r] * sj
			}
		}
		end := f.lp[k+1]
		if dk == 0 {
			for p := f.lp[k]; p < end; p++ {
				w[f.li[p]] = 0
			}
			return k
		}
		f.d[k] = dk
		for p := f.lp[k]; p < end; p++ {
			i := f.li[p]
			px[f.cscPos[p]] = w[i] / dk
			w[i] = 0
		}
	}
	return -1
}

// Refactor runs the numeric phase for a concrete ρ, supernode by
// supernode in ascending order: every panel a supernode reads belongs
// to an earlier one.  A zero pivot aborts it with an error naming the
// failing column in the unpermuted numbering of K.
func (f *ldltFactor) Refactor(rho float64) error {
	w := f.w
	clear(w) // factorSuper needs an all-zero workspace
	for s := 0; s+1 < len(f.sPtr); s++ {
		if k := f.factorSuper(s, rho, w); k >= 0 {
			return fmt.Errorf("%w at column %d", errNotPositiveDefinite, f.perm[k])
		}
	}
	return nil
}

// ensureWB sizes the per-RHS workspaces of a batched solve.
func (f *ldltFactor) ensureWB(nrhs int) [][]float64 {
	for len(f.wb) < nrhs {
		f.wb = append(f.wb, make([]float64, f.n))
	}
	return f.wb
}

// fwdSuper applies supernode s to the forward solve Lw = b in PUSH
// mode: a dense unit-lower solve on the diagonal block, then one dense
// panel-column axpy per column into the below-panel rows, gathered
// once into tt so the inner loops run over two contiguous arrays.
// Once a supernode's pushes are out, its own entries are final, so the
// diagonal scale w ← D⁻¹w is folded in per supernode (the division is
// element-independent — same bits as a separate pass), saving one full
// sweep over w per solve.  Every target element accumulates its
// subtractions in ascending source column — the same per-element order
// as the scalar column sweep, with padded slots contributing
// exact-zero terms — so the bits match the scalar reference.
func (f *ldltFactor) fwdSuper(s int, w, tt []float64) {
	c0 := f.sPtr[s]
	width := f.sPtr[s+1] - c0
	srows := f.sRows[f.sRowPtr[s]:f.sRowPtr[s+1]]
	ld := width + len(srows)
	base := f.pOff[s]
	px := f.px
	if width == 1 {
		// Single column: skip the gather/scatter round trip and push
		// straight into w.
		wj := w[c0]
		bcol := px[base+1 : base+ld]
		for r, i := range srows {
			w[i] -= bcol[r] * wj
		}
		w[c0] = wj / f.d[c0]
		return
	}
	wc := w[c0 : c0+width]
	// In-panel unit-lower solve, blocked four source columns per pass:
	// finalize the block's own little triangle first (each value
	// subtracts its terms in ascending source column, exactly as the
	// column-at-a-time sweep), then push all four into the remainder of
	// the panel in one pass — same per-element op sequence, a quarter of
	// the wc load/store traffic.
	jj := 0
	for ; jj+4 <= width; jj += 4 {
		col0 := px[base+jj*ld : base+jj*ld+width]
		col1 := px[base+(jj+1)*ld : base+(jj+1)*ld+width]
		col2 := px[base+(jj+2)*ld : base+(jj+2)*ld+width]
		col3 := px[base+(jj+3)*ld : base+(jj+3)*ld+width]
		w0 := wc[jj]
		w1 := wc[jj+1] - col0[jj+1]*w0
		w2 := wc[jj+2] - col0[jj+2]*w0
		w2 -= col1[jj+2] * w1
		w3 := wc[jj+3] - col0[jj+3]*w0
		w3 -= col1[jj+3] * w1
		w3 -= col2[jj+3] * w2
		wc[jj+1], wc[jj+2], wc[jj+3] = w1, w2, w3
		for r := jj + 4; r < width; r++ {
			t := wc[r] - col0[r]*w0
			t -= col1[r] * w1
			t -= col2[r] * w2
			t -= col3[r] * w3
			wc[r] = t
		}
	}
	for ; jj < width; jj++ {
		wj := wc[jj]
		col := px[base+jj*ld : base+jj*ld+width]
		for r := jj + 1; r < width; r++ {
			wc[r] -= col[r] * wj
		}
	}
	if len(srows) == 0 {
		dc := f.d[c0 : c0+width]
		for jj := range wc {
			wc[jj] /= dc[jj]
		}
		return
	}
	tt = tt[:len(srows)]
	for r, i := range srows {
		tt[r] = w[i]
	}
	// Rank-4 panel update: four columns per pass halve the tt traffic.
	// Each element still subtracts its terms one by one in ascending
	// source column — the same op sequence as four separate sweeps, so
	// the bits are unchanged.  Rows go two per pass: each row's chain is
	// a serial multiply-subtract dependency, so pairing rows keeps two
	// independent chains in flight without touching either one's order.
	for jj = 0; jj+4 <= width; jj += 4 {
		b0 := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
		b1 := px[base+(jj+1)*ld+width : base+(jj+2)*ld][:len(tt)]
		b2 := px[base+(jj+2)*ld+width : base+(jj+3)*ld][:len(tt)]
		b3 := px[base+(jj+3)*ld+width : base+(jj+4)*ld][:len(tt)]
		w0, w1, w2, w3 := wc[jj], wc[jj+1], wc[jj+2], wc[jj+3]
		r := 0
		for ; r+2 <= len(tt); r += 2 {
			t0 := tt[r] - b0[r]*w0
			t1 := tt[r+1] - b0[r+1]*w0
			t0 -= b1[r] * w1
			t1 -= b1[r+1] * w1
			t0 -= b2[r] * w2
			t1 -= b2[r+1] * w2
			t0 -= b3[r] * w3
			t1 -= b3[r+1] * w3
			tt[r], tt[r+1] = t0, t1
		}
		for ; r < len(tt); r++ {
			t0 := tt[r] - b0[r]*w0
			t0 -= b1[r] * w1
			t0 -= b2[r] * w2
			t0 -= b3[r] * w3
			tt[r] = t0
		}
	}
	for ; jj+2 <= width; jj += 2 {
		b0 := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
		b1 := px[base+(jj+1)*ld+width : base+(jj+2)*ld][:len(tt)]
		w0, w1 := wc[jj], wc[jj+1]
		for r := range tt {
			t0 := tt[r] - b0[r]*w0
			t0 -= b1[r] * w1
			tt[r] = t0
		}
	}
	for ; jj < width; jj++ {
		bcol := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
		wj := wc[jj]
		for r := range tt {
			tt[r] -= bcol[r] * wj
		}
	}
	for r, i := range srows {
		w[i] = tt[r]
	}
	dc := f.d[c0 : c0+width]
	for jj := range wc {
		wc[jj] /= dc[jj]
	}
}

// bwdSuper applies supernode s to the backward solve Lᵀw = b.  Each
// column's accumulation chain subtracts its EXTERNAL terms first (the
// dense dot against the below-panel rows, gathered once into tt,
// ascending row) and its in-panel terms second — that convention frees
// the external phase to run four columns per tt pass with independent
// accumulators, where the one-chain-per-column form is pure multiply-
// subtract latency.  The order is fixed per element by the symbolic
// views, so the bits match the scalar reference that follows the same
// convention.
func (f *ldltFactor) bwdSuper(s int, w, tt []float64) {
	c0 := f.sPtr[s]
	width := f.sPtr[s+1] - c0
	srows := f.sRows[f.sRowPtr[s]:f.sRowPtr[s+1]]
	ld := width + len(srows)
	base := f.pOff[s]
	px := f.px
	if width == 1 {
		// Single column: one dot straight off w, no gather.
		wj := w[c0]
		bcol := px[base+1 : base+ld]
		for r, i := range srows {
			wj -= bcol[r] * w[i]
		}
		w[c0] = wj
		return
	}
	wc := w[c0 : c0+width]
	if len(srows) > 0 {
		tt = tt[:len(srows)]
		for r, i := range srows {
			tt[r] = w[i]
		}
		// External phase: four independent dot chains per pass.  Each
		// chain subtracts its terms one by one in ascending row — the
		// same sequence as a lone dot, so blocking is bitwise inert.
		jj := 0
		for ; jj+8 <= width; jj += 8 {
			b0 := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
			b1 := px[base+(jj+1)*ld+width : base+(jj+2)*ld][:len(tt)]
			b2 := px[base+(jj+2)*ld+width : base+(jj+3)*ld][:len(tt)]
			b3 := px[base+(jj+3)*ld+width : base+(jj+4)*ld][:len(tt)]
			b4 := px[base+(jj+4)*ld+width : base+(jj+5)*ld][:len(tt)]
			b5 := px[base+(jj+5)*ld+width : base+(jj+6)*ld][:len(tt)]
			b6 := px[base+(jj+6)*ld+width : base+(jj+7)*ld][:len(tt)]
			b7 := px[base+(jj+7)*ld+width : base+(jj+8)*ld][:len(tt)]
			a0, a1, a2, a3 := wc[jj], wc[jj+1], wc[jj+2], wc[jj+3]
			a4, a5, a6, a7 := wc[jj+4], wc[jj+5], wc[jj+6], wc[jj+7]
			for r := range tt {
				t := tt[r]
				a0 -= b0[r] * t
				a1 -= b1[r] * t
				a2 -= b2[r] * t
				a3 -= b3[r] * t
				a4 -= b4[r] * t
				a5 -= b5[r] * t
				a6 -= b6[r] * t
				a7 -= b7[r] * t
			}
			wc[jj], wc[jj+1], wc[jj+2], wc[jj+3] = a0, a1, a2, a3
			wc[jj+4], wc[jj+5], wc[jj+6], wc[jj+7] = a4, a5, a6, a7
		}
		for ; jj+4 <= width; jj += 4 {
			b0 := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
			b1 := px[base+(jj+1)*ld+width : base+(jj+2)*ld][:len(tt)]
			b2 := px[base+(jj+2)*ld+width : base+(jj+3)*ld][:len(tt)]
			b3 := px[base+(jj+3)*ld+width : base+(jj+4)*ld][:len(tt)]
			a0, a1, a2, a3 := wc[jj], wc[jj+1], wc[jj+2], wc[jj+3]
			for r := range tt {
				t := tt[r]
				a0 -= b0[r] * t
				a1 -= b1[r] * t
				a2 -= b2[r] * t
				a3 -= b3[r] * t
			}
			wc[jj], wc[jj+1], wc[jj+2], wc[jj+3] = a0, a1, a2, a3
		}
		for ; jj+2 <= width; jj += 2 {
			b0 := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
			b1 := px[base+(jj+1)*ld+width : base+(jj+2)*ld][:len(tt)]
			a0, a1 := wc[jj], wc[jj+1]
			for r := range tt {
				t := tt[r]
				a0 -= b0[r] * t
				a1 -= b1[r] * t
			}
			wc[jj], wc[jj+1] = a0, a1
		}
		for ; jj < width; jj++ {
			bcol := px[base+jj*ld+width : base+(jj+1)*ld][:len(tt)]
			wj := wc[jj]
			for r := range tt {
				wj -= bcol[r] * tt[r]
			}
			wc[jj] = wj
		}
	}
	// In-panel phase: the unit-upper dense solve against the now-final
	// later columns, descending.
	for jj := width - 2; jj >= 0; jj-- {
		jcol := base + jj*ld
		wj := wc[jj]
		col := px[jcol : jcol+width]
		for r := jj + 1; r < width; r++ {
			wj -= col[r] * wc[r]
		}
		wc[jj] = wj
	}
}

// SolveBatch overwrites xs[q] with K⁻¹ bs[q] for every right-hand side
// q via permute → L solve (D scale folded in per supernode) → Lᵀ solve
// → unpermute, streaming the factor through cache ONCE per supernode
// for the whole block (supernode-outer, RHS-inner) — the point of
// batching the ADMM x-steps of a wafer consensus group.  Each RHS runs
// the same kernel sequence, in its own workspace, whatever the block
// size, so every xs[q] is bitwise identical to a one-RHS solve of
// bs[q].  xs[q] and bs[q] may alias.
func (f *ldltFactor) SolveBatch(xs, bs [][]float64) {
	nrhs := len(xs)
	n := f.n
	ns := len(f.sPtr) - 1
	wb, tt := f.ensureWB(nrhs), f.tt
	for q := 0; q < nrhs; q++ {
		w, b := wb[q], bs[q]
		for k := 0; k < n; k++ {
			w[k] = b[f.perm[k]]
		}
	}
	for s := 0; s < ns; {
		if e := f.loneEnd[s]; e > s {
			// A run of lone columns: fwdSuper's single-column body with
			// nothing to push down, and bwdSuper's is a no-op.
			for q := 0; q < nrhs; q++ {
				w := wb[q]
				for k := f.sPtr[s]; k < f.sPtr[e]; k++ {
					w[k] /= f.d[k]
				}
			}
			s = e
			continue
		}
		for q := 0; q < nrhs; q++ {
			f.fwdSuper(s, wb[q], tt)
		}
		s++
	}
	for s := ns - 1; s >= 0; s-- {
		if f.loneEnd[s] > s {
			continue
		}
		for q := 0; q < nrhs; q++ {
			f.bwdSuper(s, wb[q], tt)
		}
	}
	for q := 0; q < nrhs; q++ {
		w, x := wb[q], xs[q]
		for k := 0; k < n; k++ {
			x[f.perm[k]] = w[k]
		}
	}
}
