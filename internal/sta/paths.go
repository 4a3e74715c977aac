package sta

import (
	"math"
	"sync"

	"repro/internal/netlist"
)

// Path is one register-to-register (or port-to-port) timing path.
type Path struct {
	// Nodes lists gate IDs from startpoint to endpoint inclusive.
	Nodes []int
	// Delay is the total path delay in ps, including the startpoint
	// launch (clock-to-q) and the endpoint setup.
	Delay float64
	// Mult is the number of pin-level paths the entry stands for.  A
	// driver that feeds several input pins of one gate leaves parallel
	// edges, and every pin-level copy of a gate path has the same nodes
	// and delay.  TopPathsDAG returns each gate path once with its
	// multiplicity; Result.TopPaths and Timer.TopPaths return one entry
	// of multiplicity 1 per pin-level path.
	Mult int
}

// Slack returns the path slack at clock period T.
func (p *Path) Slack(period float64) float64 { return period - p.Delay }

// NoCutoff disables the early stop of TopPathsDAG: every path up to the
// count and state limits is enumerated.
var NoCutoff = math.Inf(-1)

// cutoffMargin is the relative slack below the cutoff at which the
// search stops.  A path's delay can exceed the bound of a prefix state it
// extends only by floating-point re-association error (the bound sums
// the same terms in suffix order), which is many orders of magnitude
// smaller; see TopPathsDAG.
const cutoffMargin = 1e-9

// pathState is a node in the implicit prefix tree of the best-first
// search: one gate-level prefix, standing for mult pin-level prefixes.
// Its bound lives in the heap entry that refers to it.
type pathState struct {
	g        float64 // exact delay of the prefix up to (and including) node
	mult     int     // pin-level prefixes it stands for, capped at k
	node     int32
	parent   int32 // index into the arena; -1 for roots
	terminal bool
}

// fanArc is one distinct fanout edge of a gate in the per-call arc
// table: its sink, the number of the sink's input pins the gate drives,
// and its delay.
type fanArc struct {
	delay float64
	to    int32
	mult  int32
}

// heapItem is one frontier entry: a state's bound beside its arena
// index, so sifting compares without touching the arena.
type heapItem struct {
	bound float64
	idx   int
}

// frontier is the search's state arena and its max-heap on bound.
type frontier struct {
	arena []pathState
	heap  []heapItem
}

// pathScratch is the working set of one path search: the arc table
// with its offsets and stamps, the suffix bounds and the frontier.
// Every search overwrites what it reads, so a reused scratch gives the
// same bits as a fresh one.  TopPathsDAG takes its scratch from
// scratchPool; a Timer keeps one of its own for Timer.TopPaths.
type pathScratch struct {
	arcOff []int
	arcs   []fanArc
	stamp  []int32
	suffix []float64
	f      frontier
}

// maxPooledStates caps the arena capacity of a scratch that goes back
// to scratchPool.  The cut rounds of small designs stay well under it;
// a search that grew past it (a large design, or a large k) is dropped,
// so the pool does not pin megabytes of arena and heap between calls.
const maxPooledStates = 1 << 14

// scratchPool recycles TopPathsDAG's buffers across calls, and so
// across the cut rounds and service jobs that call it.
var scratchPool = sync.Pool{New: func() any { return new(pathScratch) }}

// grow returns s resized to n elements, reusing its capacity when it
// suffices (contents unspecified).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// TopPaths enumerates the K longest pin-level paths in exact
// non-increasing delay order, the stand-in for the paper's "top-K
// (e.g., K = 10,000) critical paths" extraction.  Fewer than K paths are
// returned if the design has fewer (enumeration also stops after
// visiting maxStates gate-level prefix states as a safety valve; 0 means
// no limit).  The pin-level copies of one gate path are adjacent and
// share one node slice; see pinPaths.
func (r *Result) TopPaths(k int, maxStates int) []*Path {
	return pinPaths(TopPathsDAG(r.In.Circ, r.order, r.ArcDelay, r.StartWeight, r.EndWeight, k, maxStates, NoCutoff))
}

// pinPaths expands gate paths into one entry per pin-level path: a path
// of multiplicity m becomes m adjacent entries of multiplicity 1 with
// its delay and its node slice.
func pinPaths(paths []*Path) []*Path {
	n := 0
	for _, p := range paths {
		n += p.Mult
	}
	if n == len(paths) {
		return paths
	}
	out := make([]*Path, 0, n)
	for _, p := range paths {
		out = append(out, p)
		for range p.Mult - 1 {
			out = append(out, &Path{Nodes: p.Nodes, Delay: p.Delay, Mult: 1})
		}
		p.Mult = 1
	}
	return out
}

// TopPathsDAG is the graph-generic K-longest-path enumeration underlying
// TopPaths: arc gives the delay of edge from→to, start the launch weight
// of a startpoint, end the terminal weight of an endpoint.  The
// optimizer reuses it on its linear delay model.  Each distinct arc is
// evaluated once, in the suffix pass, and read back when a state is
// expanded.
//
// The search runs on gate-level prefixes.  arc depends on the gate pair
// only, so the pin-level copies of a prefix through parallel edges are
// identical; one state stands for all of them and carries their number,
// capped at k.  k still counts pin-level paths: a popped terminal counts
// min(mult, k − count) toward k and is returned once, with that number
// as its Mult.  maxStates bounds gate-level pops.  On a circuit without
// parallel edges every multiplicity is 1, and the search pushes and pops
// what a pin-level search would.
//
// cutoff lets a caller that only wants paths with delay > cutoff stop
// early: the search ends once the best frontier bound falls below
// cutoff − 10⁻⁹·|cutoff|.  Every later path would descend from a
// frontier state and so lie below the cutoff, up to re-association
// error far under that margin.  Before the stop the frontier evolves
// exactly as without a cutoff, so the result is a prefix of the
// NoCutoff result that holds every path above the cutoff.
//
// The working buffers come from scratchPool and go back to it; the
// returned paths share no memory with them.
func TopPathsDAG(circ *netlist.Circuit, order []int, arc func(from, to int) float64,
	start, end func(id int) float64, k, maxStates int, cutoff float64) []*Path {
	sc := scratchPool.Get().(*pathScratch)
	paths := sc.search(circ, order, arc, start, end, k, maxStates, cutoff)
	// The paths own their node slices (frontier.nodes copies), so the
	// scratch can go back with whatever capacity the search grew.
	if cap(sc.f.arena) <= maxPooledStates {
		scratchPool.Put(sc)
	}
	return paths
}

// search runs TopPathsDAG's enumeration on the buffers of sc and leaves
// them in sc, grown to what the call needed, for the next search.
func (sc *pathScratch) search(circ *netlist.Circuit, order []int, arc func(from, to int) float64,
	start, end func(id int) float64, k, maxStates int, cutoff float64) []*Path {
	if k <= 0 {
		return nil
	}
	n := circ.NumGates()

	// arcs[arcOff[id]:arcOff[id+1]] are id's distinct fanouts in
	// first-occurrence order, each with its pin count.  stamp[fo] is the
	// slot fo last took; it marks a repeat only when that slot lies in
	// id's own run and holds fo, so stale stamps need no clearing.  The
	// pin-level edge count bounds the table, so it is sized once.
	arcOff := grow(sc.arcOff, n+1)
	edges := 0
	for _, g := range circ.Gates {
		edges += len(g.Fanouts)
	}
	arcs := grow(sc.arcs, edges)[:0]
	stamp := grow(sc.stamp, n)
	for id, g := range circ.Gates {
		off := len(arcs)
		arcOff[id] = off
		for _, fo := range g.Fanouts {
			if s := int(stamp[fo]); s >= off && s < len(arcs) && int(arcs[s].to) == fo {
				arcs[s].mult++
				continue
			}
			stamp[fo] = int32(len(arcs))
			arcs = append(arcs, fanArc{to: int32(fo), mult: 1})
		}
	}
	arcOff[n] = len(arcs)

	// suffix[id] = best achievable delay from id's output to any
	// endpoint (excluding id's own launch weight); -inf for dead ends.
	suffix := grow(sc.suffix, n)
	for i := range suffix {
		suffix[i] = math.Inf(-1)
	}
	relax := func(id int) {
		best := math.Inf(-1)
		for j := arcOff[id]; j < arcOff[id+1]; j++ {
			fo := int(arcs[j].to)
			a := arc(id, fo)
			arcs[j].delay = a
			var v float64
			if kind := circ.Gates[fo].Kind; kind == netlist.PO || kind == netlist.Seq {
				v = a + end(fo)
			} else if !math.IsInf(suffix[fo], -1) {
				v = a + suffix[fo]
			} else {
				continue
			}
			if v > best {
				best = v
			}
		}
		suffix[id] = best
	}
	// Reverse topological pass fixes combinational/PI suffixes; a second
	// pass fixes sequential launch nodes (their fanouts are already
	// final).
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if circ.Gates[id].Kind != netlist.Seq {
			relax(id)
		}
	}
	for id, g := range circ.Gates {
		if g.Kind == netlist.Seq {
			relax(id)
		}
	}

	// Only relaxed gates get a live suffix, and only states at such gates
	// are expanded, so the arc delays read below were all written above.
	// The arena grows by push: no bound in k holds for a gate-level
	// search, which usually pushes far fewer states than k.
	f := frontier{arena: sc.f.arena[:0], heap: sc.f.heap[:0]}
	// Roots: all startpoints with a live suffix.
	for id, g := range circ.Gates {
		if g.Kind != netlist.PI && g.Kind != netlist.Seq || math.IsInf(suffix[id], -1) {
			continue
		}
		g0 := start(id)
		f.push(pathState{node: int32(id), g: g0, mult: 1, parent: -1}, g0+suffix[id])
	}

	stop := cutoff - cutoffMargin*math.Abs(cutoff)
	var paths []*Path
	count, visited := 0, 0
	for len(f.heap) > 0 && count < k {
		if f.heap[0].bound < stop {
			break
		}
		si := f.pop()
		st := f.arena[si]
		visited++
		if maxStates > 0 && visited > maxStates {
			break
		}
		if st.terminal {
			m := min(st.mult, k-count)
			paths = append(paths, &Path{Nodes: f.nodes(si), Delay: st.g, Mult: m})
			count += m
			continue
		}
		for _, e := range arcs[arcOff[st.node]:arcOff[st.node+1]] {
			fo := int(e.to)
			child := pathState{node: e.to, mult: capMul(st.mult, int(e.mult), k), parent: int32(si)}
			if kind := circ.Gates[fo].Kind; kind == netlist.PO || kind == netlist.Seq {
				child.g = st.g + e.delay + end(fo)
				child.terminal = true
				f.push(child, child.g)
			} else if !math.IsInf(suffix[fo], -1) {
				child.g = st.g + e.delay
				f.push(child, child.g+suffix[fo])
			}
		}
	}
	*sc = pathScratch{arcOff: arcOff, arcs: arcs, stamp: stamp, suffix: suffix, f: f}
	return paths
}

// capMul returns min(a·b, k) for 0 < a ≤ k and b > 0, without overflow.
func capMul(a, b, k int) int {
	if a > k/b {
		return k
	}
	return a * b
}

// push adds a state with its bound, and pop removes the state with the
// largest bound and returns its arena index.  They perform exactly the
// comparisons and swaps of container/heap's Push and Pop, so states with
// equal bounds leave the heap in the same order as they would there.
func (f *frontier) push(st pathState, bound float64) {
	f.arena = append(f.arena, st)
	h := append(f.heap, heapItem{bound: bound, idx: len(f.arena) - 1})
	j := len(h) - 1
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].bound > h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	f.heap = h
}

func (f *frontier) pop() int {
	h := f.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].bound > h[j1].bound {
			j = j2
		}
		if !(h[j].bound > h[i].bound) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	f.heap = h[:n]
	return h[n].idx
}

// nodes rebuilds the gate sequence of the prefix ending at arena index
// si, from startpoint to endpoint.
func (f *frontier) nodes(si int) []int {
	n := 0
	for i := si; i >= 0; i = int(f.arena[i].parent) {
		n++
	}
	out := make([]int, n)
	for i := si; i >= 0; i = int(f.arena[i].parent) {
		n--
		out[n] = int(f.arena[i].node)
	}
	return out
}
