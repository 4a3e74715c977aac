package qp

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rcmOrderOracle is rcmOrder as it was before the start vertices were
// presorted: every component rescans all vertices for its start.
//
// rcmOrder returns a reverse Cuthill–McKee ordering of the graph: BFS
// from a low-degree peripheral node, neighbors visited in increasing-
// degree order, then the whole order reversed.  RCM concentrates the
// grid-Laplacian smoothness structure into a narrow band, which keeps
// LDLᵀ fill close to the bandwidth.
func rcmOrderOracle(adj *CSR) []int {
	n := adj.N
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = adj.RowPtr[v+1] - adj.RowPtr[v]
	}
	order := make([]int, 0, n)
	visited := make([]bool, n)
	queue := make([]int, 0, n)
	nbuf := make([]int, 0, 16)
	for {
		// Start the next component at its minimum-degree node (a cheap
		// pseudo-peripheral choice that is deterministic).
		start := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (start < 0 || deg[v] < deg[start]) {
				start = v
			}
		}
		if start < 0 {
			break
		}
		visited[start] = true
		queue = append(queue[:0], start)
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			order = append(order, v)
			nbuf = nbuf[:0]
			for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
				if w := adj.Col[k]; !visited[w] {
					visited[w] = true
					nbuf = append(nbuf, w)
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
	return order
}

// ndOrderOracle is ndOrder as it was before disconnected subgraphs were
// peeled in one pass: each component copies the whole remainder.
//
// ndOrder returns a generalized nested-dissection ordering (George &
// Liu's automatic scheme): recursively split each subgraph on the
// middle level set of a pseudo-peripheral BFS, number the separator
// last, and Cuthill–McKee the small leaves.  On a w×w grid Laplacian
// the separators are O(w) while RCM's band is O(w) PER ROW, so the
// factor fill drops from O(n·w) toward O(n log n).  Everything is
// index-deterministic: component roots and BFS tie-breaks follow
// vertex order, never map iteration.
func ndOrderOracle(adj *CSR) []int {
	n := adj.N
	const leafSize = 32
	order := make([]int, 0, n)
	sub := make([]int, n) // vertex → current subgraph id (always ≥ 1)
	for i := range sub {
		sub[i] = 1
	}
	level := make([]int, n)
	queue := make([]int, 0, n)
	nextID := 2

	// bfs runs a breadth-first sweep from root restricted to vertices
	// with sub[v] == id, filling queue with the visited set in order
	// and level with BFS depths.  Returns the number of levels.
	bfs := func(root, id int) int {
		queue = queue[:0]
		queue = append(queue, root)
		level[root] = 0
		sub[root] = -id // negative marks visited-within-this-sweep
		depth := 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
				if w := adj.Col[k]; sub[w] == id {
					sub[w] = -id
					level[w] = level[v] + 1
					depth = level[w]
					queue = append(queue, w)
				}
			}
		}
		for _, v := range queue {
			sub[v] = id
		}
		return depth + 1
	}

	// cmLeaf appends a Cuthill–McKee order of the (possibly
	// disconnected) subgraph id to order.
	var nbuf []int
	cmLeaf := func(verts []int, id int) {
		for {
			root := -1
			for _, v := range verts {
				if sub[v] != id {
					continue
				}
				if root < 0 || adj.RowPtr[v+1]-adj.RowPtr[v] < adj.RowPtr[root+1]-adj.RowPtr[root] {
					root = v
				}
			}
			if root < 0 {
				return
			}
			queue = queue[:0]
			queue = append(queue, root)
			sub[root] = -id
			for qi := 0; qi < len(queue); qi++ {
				v := queue[qi]
				order = append(order, v)
				nbuf = nbuf[:0]
				for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
					if w := adj.Col[k]; sub[w] == id {
						sub[w] = -id
						nbuf = append(nbuf, w)
					}
				}
				slices.Sort(nbuf)
				queue = append(queue, nbuf...)
			}
		}
	}

	var rec func(verts []int, id int)
	rec = func(verts []int, id int) {
		if len(verts) <= leafSize {
			cmLeaf(verts, id)
			return
		}
		// Pseudo-peripheral root: BFS from the min-degree vertex, then
		// once more from the deepest last-visited vertex.
		root := verts[0]
		for _, v := range verts {
			if adj.RowPtr[v+1]-adj.RowPtr[v] < adj.RowPtr[root+1]-adj.RowPtr[root] {
				root = v
			}
		}
		depth := bfs(root, id)
		if len(queue) < len(verts) {
			// Disconnected subgraph: order the components separately.
			comp := append([]int(nil), queue...)
			compID := nextID
			nextID++
			for _, v := range comp {
				sub[v] = compID
			}
			rest := make([]int, 0, len(verts)-len(comp))
			for _, v := range verts {
				if sub[v] == id {
					rest = append(rest, v)
				}
			}
			restID := nextID
			nextID++
			for _, v := range rest {
				sub[v] = restID
			}
			rec(comp, compID)
			rec(rest, restID)
			return
		}
		if far := queue[len(queue)-1]; far != root {
			depth = bfs(far, id)
		}
		if depth < 3 {
			cmLeaf(verts, id)
			return
		}
		mid := depth / 2
		left := make([]int, 0, len(verts))
		right := make([]int, 0, len(verts))
		sep := make([]int, 0, 64)
		for _, v := range queue {
			switch {
			case level[v] < mid:
				left = append(left, v)
			case level[v] > mid:
				right = append(right, v)
			default:
				sep = append(sep, v)
			}
		}
		leftID, rightID := nextID, nextID+1
		nextID += 2
		for _, v := range left {
			sub[v] = leftID
		}
		for _, v := range right {
			sub[v] = rightID
		}
		rec(left, leftID)
		rec(right, rightID)
		slices.Sort(sep)
		order = append(order, sep...)
	}

	all := make([]int, n)
	for v := range all {
		all[v] = v
	}
	rec(all, 1)
	return order
}

// orderingGraphs returns labelled adjacency graphs of the shapes the
// cut QP hands bestOrder: random sparse graphs with isolated vertices
// and many small components, a grid Laplacian plus dense cut cliques,
// and the first-round patterns of the bias-only and joint formulations
// (box rows only, so every vertex is isolated), alone and with a few
// smoothness rows and cuts that span the dose and bias blocks.
func orderingGraphs(rng *rand.Rand) []struct {
	name string
	adj  *CSR
} {
	var out []struct {
		name string
		adj  *CSR
	}
	add := func(name string, p, a *CSR, n int) {
		out = append(out, struct {
			name string
			adj  *CSR
		}{name, new(orderWork).adjacencyOf(p, a, n)})
	}
	ones := func(n int) []float64 {
		d := make([]float64, n)
		for i := range d {
			d[i] = 1
		}
		return d
	}
	// rows builds a CSR from per-row column lists (values 1).
	rows := func(n int, cols [][]int) *CSR {
		vals := make([][]float64, len(cols))
		for r, c := range cols {
			slices.Sort(c)
			cols[r] = slices.Compact(c)
			vals[r] = ones(len(cols[r]))
		}
		return CSRFromRows(n, cols, vals)
	}
	box := func(n int) [][]int {
		cols := make([][]int, n)
		for j := range cols {
			cols[j] = []int{j}
		}
		return cols
	}
	for trial := 0; trial < 12; trial++ {
		n := 40 + rng.Intn(400)
		for _, m := range []int{0, n / 10, n / 3, n} {
			add(fmt.Sprintf("random/n=%d/m=%d/t=%d", n, m, trial), diagCSRBench(ones(n)), randomPattern(rng, m, n, 3, false), n)
		}
		// Many small components: disjoint cliques and paths over a random
		// vertex permutation, with some vertices left isolated.
		perm := rng.Perm(n)
		cols := box(n)
		for at := 0; at < n; {
			size := 1 + rng.Intn(6)
			if at+size > n {
				size = n - at
			}
			if rng.Intn(3) > 0 {
				cols = append(cols, append([]int(nil), perm[at:at+size]...))
			} else {
				for k := at; k+1 < at+size; k++ {
					cols = append(cols, []int{perm[k], perm[k+1]})
				}
			}
			at += size
		}
		add(fmt.Sprintf("components/n=%d/t=%d", n, trial), diagCSRBench(ones(n)), rows(n, cols), n)
	}
	for _, g := range []int{6, 9, 17, 24} {
		p := gridCutQP(rng, g, 0, -5, 2, 1)
		add(fmt.Sprintf("grid/g=%d", g), p.P, p.A, g*g)
		pc := gridCutQP(rng, g, 1+g/2, -5, 2, 1)
		add(fmt.Sprintf("grid+cuts/g=%d", g), pc.P, pc.A, g*g)
		// Grid patches: a few smoothness rows and cut cliques over an
		// otherwise isolated grid, as after the first separation rounds.
		n := g * g
		cols := box(n)
		for k := 0; k < n/4; k++ {
			a := rng.Intn(n)
			if a%g+1 < g {
				cols = append(cols, []int{a, a + 1})
			}
		}
		cc, _, _ := gridCuts(rng, g, 2)
		cols = append(cols, cc...)
		add(fmt.Sprintf("patches/g=%d", g), diagCSRBench(ones(n)), rows(n, cols), n)
	}
	for _, nb := range []int{4, 25, 60} {
		add(fmt.Sprintf("bias-only/round0/domains=%d", nb), diagCSRBench(ones(nb)), rows(nb, box(nb)), nb)
		for _, g := range []int{8, 20} {
			nd := g * g
			n := nd + nb
			add(fmt.Sprintf("joint/round0/g=%d/domains=%d", g, nb), diagCSRBench(ones(n)), rows(n, box(n)), n)
			cols := box(n)
			for k := 0; k < 3; k++ {
				var cut []int
				for s := 0; s < g; s++ {
					cut = append(cut, rng.Intn(nd))
				}
				cut = append(cut, nd+rng.Intn(nb), nd+rng.Intn(nb))
				cols = append(cols, cut)
			}
			for k := 0; k < g; k++ {
				a := rng.Intn(nd - g)
				cols = append(cols, []int{a, a + g})
			}
			add(fmt.Sprintf("joint/round1/g=%d/domains=%d", g, nb), diagCSRBench(ones(n)), rows(n, cols), n)
		}
	}
	return out
}

// TestOrderingsMatchComponentLoopOracle: the presorted component starts
// of rcmOrder and the one-pass peel of ndOrder return exactly the
// permutations of the component loops they replaced, on connected,
// disconnected and mostly isolated patterns, so bestOrder (and every
// factor built on it) keeps its bits.
func TestOrderingsMatchComponentLoopOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, g := range orderingGraphs(rng) {
		if got, want := new(orderWork).rcmOrder(g.adj), rcmOrderOracle(g.adj); !slices.Equal(got, want) {
			t.Errorf("%s: rcmOrder %v, oracle %v", g.name, got, want)
		}
		if got, want := new(orderWork).ndOrder(g.adj), ndOrderOracle(g.adj); !slices.Equal(got, want) {
			t.Errorf("%s: ndOrder %v, oracle %v", g.name, got, want)
		}
	}
}

// BenchmarkOrderingDisconnected times both orderings, and their
// component-loop oracles, on the first-round pattern of a 100×100 dose
// grid: box rows on every cell, so all but a few patches of vertices
// are isolated.
func BenchmarkOrderingDisconnected(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const g = 100
	n := g * g
	cols := make([][]int, 0, n+64)
	for j := 0; j < n; j++ {
		cols = append(cols, []int{j})
	}
	cc, _, _ := gridCuts(rng, g, 8)
	cols = append(cols, cc...)
	vals := make([][]float64, len(cols))
	for r := range cols {
		vals[r] = make([]float64, len(cols[r]))
		for k := range vals[r] {
			vals[r][k] = 1
		}
	}
	pd := make([]float64, n)
	for i := range pd {
		pd[i] = 1
	}
	adj := new(orderWork).adjacencyOf(diagCSRBench(pd), CSRFromRows(n, cols, vals), n)
	w := new(orderWork)
	for _, o := range []struct {
		name  string
		order func(*CSR) []int
	}{
		{"rcm", w.rcmOrder}, {"nd", w.ndOrder},
		{"rcm-oracle", rcmOrderOracle}, {"nd-oracle", ndOrderOracle},
	} {
		b.Run(o.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o.order(adj)
			}
		})
	}
}

// analyzeOrderingOracle is analyze without the diagonal-K short path:
// it orders every adjacency, edgeless or not, with bestOrder.
func analyzeOrderingOracle(p *CSR, sigma float64, a *CSR, n int) *ldltFactor {
	f := &ldltFactor{n: n}
	f.sizeColumns()
	order, _ := f.ow.bestOrder(f.ow.adjacencyOf(p, a, n))
	copy(f.perm, order)
	for k, v := range f.perm {
		f.iperm[v] = k
	}
	f.ents = collectUpper(f.ents[:0], p, sigma, a, n, f.iperm)
	f.compilePattern(f.ents)
	f.symbolic()
	return f
}

// TestDiagonalKSkipsOrderings: on an edgeless graph both candidate
// orderings return the identity with zero fill, and nested dissection
// wins the tie, so bestOrder is the identity at every size, the
// leaf size and the sizes of serve-mix's cut QPs included.  A K whose P
// is diagonal and whose A holds one-entry box rows has such an
// adjacency, and the factor analyze builds for it by the short path
// equals the one the orderings build: permutation, K and L patterns,
// supernodes, and after a refactor the panels and pivots, bit for bit.
func TestDiagonalKSkipsOrderings(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 5, 32, 33, 49, 53, 100, 6561} {
		pd := make([]float64, n)
		cols, vals := make([][]int, n), make([][]float64, n)
		for j := range pd {
			pd[j] = 0.5 + rng.Float64()
			cols[j], vals[j] = []int{j}, []float64{0.1 + rng.Float64()}
		}
		p, a := diagCSRBench(pd), CSRFromRows(n, cols, vals)
		w := new(orderWork)
		adj := w.adjacencyOf(p, a, n)
		if len(adj.Col) != 0 {
			t.Fatalf("n=%d: the adjacency of a diagonal K has %d entries", n, len(adj.Col))
		}
		order, fill := w.bestOrder(adj)
		for k, v := range order {
			if v != k {
				t.Fatalf("n=%d: bestOrder puts vertex %d at %d, want the identity", n, v, k)
			}
		}
		if fill != 0 || len(order) != n {
			t.Fatalf("n=%d: bestOrder has fill %d over %d vertices", n, fill, len(order))
		}
		sigma := DefaultSettings().Sigma
		got := new(ldltFactor).analyze(p, sigma, a, n)
		want := analyzeOrderingOracle(p, sigma, a, n)
		for _, v := range []struct {
			name      string
			got, want []int
		}{
			{"perm", got.perm, want.perm},
			{"kp", got.kp, want.kp},
			{"ki", got.ki, want.ki},
			{"lp", got.lp, want.lp},
			{"li", got.li, want.li},
			{"sPtr", got.sPtr, want.sPtr},
			{"sRows", got.sRows, want.sRows},
		} {
			if !slices.Equal(v.got, v.want) {
				t.Fatalf("n=%d: %s differs from the ordered analysis", n, v.name)
			}
		}
		if err := got.Refactor(0.3); err != nil {
			t.Fatal(err)
		}
		if err := want.Refactor(0.3); err != nil {
			t.Fatal(err)
		}
		if !floatBitsEqual(got.px, want.px) || !floatBitsEqual(got.d, want.d) {
			t.Fatalf("n=%d: panels or pivots differ from the ordered analysis", n)
		}
	}
}
