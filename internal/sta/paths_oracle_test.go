package sta

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

// oracleState and oracleHeap are the container/heap frontier of the
// original enumeration, kept as the oracle for TopPathsDAG.
type oracleState struct {
	node     int
	g        float64
	bound    float64
	parent   int
	terminal bool
}

type oracleHeap struct {
	arena *[]oracleState
	idx   []int
}

func (h oracleHeap) Len() int { return len(h.idx) }
func (h oracleHeap) Less(a, b int) bool {
	return (*h.arena)[h.idx[a]].bound > (*h.arena)[h.idx[b]].bound
}
func (h oracleHeap) Swap(a, b int) { h.idx[a], h.idx[b] = h.idx[b], h.idx[a] }
func (h *oracleHeap) Push(x any)   { h.idx = append(h.idx, x.(int)) }
func (h *oracleHeap) Pop() any {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// topPathsHeapOracle is the original K-longest-path enumeration: a
// container/heap best-first search that re-evaluates every arc when it
// expands a state and has no cutoff.
func topPathsHeapOracle(circ *netlist.Circuit, order []int, arc func(from, to int) float64,
	start, end func(id int) float64, k, maxStates int) []*Path {
	if k <= 0 {
		return nil
	}
	n := circ.NumGates()
	suffix := make([]float64, n)
	for i := range suffix {
		suffix[i] = math.Inf(-1)
	}
	relax := func(id int) {
		g := circ.Gates[id]
		best := math.Inf(-1)
		for _, fo := range g.Fanouts {
			fog := circ.Gates[fo]
			a := arc(id, fo)
			var v float64
			if fog.Kind == netlist.PO || fog.Kind == netlist.Seq {
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

	arena := make([]oracleState, 0, 4*k)
	h := &oracleHeap{arena: &arena}
	push := func(s oracleState) {
		arena = append(arena, s)
		heap.Push(h, len(arena)-1)
	}
	for _, sp := range circ.StartPoints() {
		if math.IsInf(suffix[sp], -1) {
			continue
		}
		g0 := start(sp)
		push(oracleState{node: sp, g: g0, bound: g0 + suffix[sp], parent: -1})
	}

	var paths []*Path
	visited := 0
	for h.Len() > 0 && len(paths) < k {
		si := heap.Pop(h).(int)
		s := arena[si]
		visited++
		if maxStates > 0 && visited > maxStates {
			break
		}
		if s.terminal {
			var rev []int
			for i := si; i >= 0; i = arena[i].parent {
				rev = append(rev, arena[i].node)
			}
			nodes := make([]int, len(rev))
			for i, v := range rev {
				nodes[len(rev)-1-i] = v
			}
			paths = append(paths, &Path{Nodes: nodes, Delay: s.g})
			continue
		}
		g := circ.Gates[s.node]
		for _, fo := range g.Fanouts {
			fog := circ.Gates[fo]
			a := arc(s.node, fo)
			if fog.Kind == netlist.PO || fog.Kind == netlist.Seq {
				tot := s.g + a + end(fo)
				push(oracleState{node: fo, g: tot, bound: tot, parent: si, terminal: true})
			} else if !math.IsInf(suffix[fo], -1) {
				ng := s.g + a
				push(oracleState{node: fo, g: ng, bound: ng + suffix[fo], parent: si})
			}
		}
	}
	return paths
}

// diffPaths describes the first difference between got and want (node
// sequences and delay bits, in order), or returns "" when they agree.
func diffPaths(got, want []*Path) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, oracle %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Delay) != math.Float64bits(want[i].Delay) {
			return fmt.Sprintf("path %d delay %v, oracle %v", i, got[i].Delay, want[i].Delay)
		}
		if len(got[i].Nodes) != len(want[i].Nodes) {
			return fmt.Sprintf("path %d has %d nodes, oracle %d", i, len(got[i].Nodes), len(want[i].Nodes))
		}
		for j := range got[i].Nodes {
			if got[i].Nodes[j] != want[i].Nodes[j] {
				return fmt.Sprintf("path %d node %d is %d, oracle %d", i, j, got[i].Nodes[j], want[i].Nodes[j])
			}
		}
	}
	return ""
}

// diffCutoffPrefix describes how got fails to be a prefix of the uncut
// oracle output want that holds every oracle path with delay above
// cutoff, or returns "" when it is one.
func diffCutoffPrefix(got, want []*Path, cutoff float64) string {
	if len(got) > len(want) {
		return fmt.Sprintf("%d paths, more than the oracle's %d", len(got), len(want))
	}
	if d := diffPaths(got, want[:len(got)]); d != "" {
		return d
	}
	for i := len(got); i < len(want); i++ {
		if want[i].Delay > cutoff {
			return fmt.Sprintf("oracle path %d (delay %v) above cutoff %v is missing (%d returned)",
				i, want[i].Delay, cutoff, len(got))
		}
	}
	return ""
}

// pathSearchCase is one enumeration input: a circuit with its order and
// the three weight functions.
type pathSearchCase struct {
	name       string
	circ       *netlist.Circuit
	order      []int
	arc        func(from, to int) float64
	start, end func(id int) float64
}

// goldenCase enumerates on r's golden delays.
func goldenCase(name string, r *Result) pathSearchCase {
	return pathSearchCase{name, r.In.Circ, r.order, r.ArcDelay, r.StartWeight, r.EndWeight}
}

// shiftedCase mimics the optimizer's linear delay model: every cell
// delay and register launch moves by a seeded per-gate delta.
func shiftedCase(name string, r *Result, seed int64) pathSearchCase {
	rng := rand.New(rand.NewSource(seed))
	delta := make([]float64, r.In.Circ.NumGates())
	for i := range delta {
		delta[i] = rng.Float64()*4 - 2
	}
	gates := r.In.Circ.Gates
	arc := func(from, to int) float64 {
		a := r.ArcDelay(from, to)
		if gates[to].Kind == netlist.Comb {
			a += delta[to]
		}
		return a
	}
	start := func(id int) float64 {
		s := r.StartWeight(id)
		if gates[id].Kind == netlist.Seq {
			s += delta[id]
		}
		return s
	}
	return pathSearchCase{name, r.In.Circ, r.order, arc, start, r.EndWeight}
}

// hasParallelEdges reports whether some gate drives two or more input
// pins of one gate.
func hasParallelEdges(circ *netlist.Circuit) bool {
	seen := map[[2]int]bool{}
	for id, g := range circ.Gates {
		for _, fo := range g.Fanouts {
			if seen[[2]int{id, fo}] {
				return true
			}
			seen[[2]int{id, fo}] = true
		}
	}
	return false
}

// pinSearch runs TopPathsDAG and expands its gate paths into one entry
// per pin-level path, the form the oracle returns.
func pinSearch(c pathSearchCase, k, maxStates int, cutoff float64) []*Path {
	return pinPaths(TopPathsDAG(c.circ, c.order, c.arc, c.start, c.end, k, maxStates, cutoff))
}

// diffCappedPrefix describes how got fails to be a prefix of the
// uncapped oracle output full that holds every path above cutoff of the
// capped oracle output want, or returns "" when it is one.  It is the
// contract of a state cap on a circuit with parallel edges: the search
// caps gate-level pops, the oracle pin-level pops, so the search gets
// at least as far.
func diffCappedPrefix(got, want, full []*Path, cutoff float64) string {
	if len(got) > len(full) {
		return fmt.Sprintf("%d paths, more than the uncapped oracle's %d", len(got), len(full))
	}
	if d := diffPaths(got, full[:len(got)]); d != "" {
		return d
	}
	for i := len(got); i < len(want); i++ {
		if want[i].Delay > cutoff {
			return fmt.Sprintf("capped oracle path %d (delay %v) above cutoff %v is missing (%d returned)",
				i, want[i].Delay, cutoff, len(got))
		}
	}
	return ""
}

// checkAgainstOracle runs TopPathsDAG, expanded to pin-level paths,
// against the oracle over a spread of k and maxStates, and over cutoffs
// drawn from the oracle's own delays (each exact delay, just above and
// below it).  Without a state cap, or on a circuit without parallel
// edges, the output must equal the oracle's, or with a cutoff be a
// prefix of it that holds every path above the cutoff.  Under a cap on
// a circuit with parallel edges it must meet diffCappedPrefix.  It
// returns how many (k, maxStates) pairs took that branch with a cap
// that truncated the oracle.
func checkAgainstOracle(t *testing.T, c pathSearchCase) (bindingCaps int) {
	t.Helper()
	parallel := hasParallelEdges(c.circ)
	for _, k := range []int{1, 10, 64, 2000} {
		full := topPathsHeapOracle(c.circ, c.order, c.arc, c.start, c.end, k, 0)
		for _, maxStates := range []int{0, 1, 7, 60, 600} {
			want := topPathsHeapOracle(c.circ, c.order, c.arc, c.start, c.end, k, maxStates)
			capped := parallel && maxStates > 0
			if capped && len(want) < len(full) {
				bindingCaps++
			}
			check := func(cutoff float64) {
				t.Helper()
				got := pinSearch(c, k, maxStates, cutoff)
				var d string
				if capped {
					d = diffCappedPrefix(got, want, full, cutoff)
				} else {
					d = diffCutoffPrefix(got, want, cutoff)
				}
				if d != "" {
					t.Fatalf("%s k=%d maxStates=%d cutoff=%v: %s", c.name, k, maxStates, cutoff, d)
				}
			}
			check(NoCutoff)
			if len(want) == 0 {
				continue
			}
			for _, i := range []int{0, len(want) / 3, len(want) / 2, len(want) - 1} {
				d := want[i].Delay
				for _, cut := range []float64{d, math.Nextafter(d, math.Inf(1)), d - 1e-6, d + 1, d - 1} {
					check(cut)
				}
			}
		}
	}
	return bindingCaps
}

// TestTopPathsMatchHeapOracle: on seeded mesh and random layered
// designs, under golden and shifted delays, the search expanded to
// pin-level paths returns exactly the oracle's paths, and with a cutoff
// a prefix of them that holds every path above it (checkAgainstOracle
// gives the rule under a state cap).  The designs must include circuits
// with and without parallel edges, and a cap that truncates the oracle
// on one with them.
func TestTopPathsMatchHeapOracle(t *testing.T) {
	parallel, plain, bindingCaps := 0, 0, 0
	count := func(in Input) {
		if hasParallelEdges(in.Circ) {
			parallel++
		} else {
			plain++
		}
	}
	for _, seed := range []int64{3, 77, 4242} {
		in := mesh(t, seed)
		count(in)
		r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		bindingCaps += checkAgainstOracle(t, goldenCase("mesh", r))
		bindingCaps += checkAgainstOracle(t, shiftedCase("mesh shifted", r, seed))
	}
	for seed := int64(1); seed <= 12; seed++ {
		in := randomDesign(rand.New(rand.NewSource(seed)))
		count(in)
		r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		bindingCaps += checkAgainstOracle(t, goldenCase("random", r))
		bindingCaps += checkAgainstOracle(t, shiftedCase("random shifted", r, seed))
	}
	t.Logf("%d designs with parallel edges, %d without; %d binding caps on the former", parallel, plain, bindingCaps)
	if parallel == 0 || plain == 0 || bindingCaps == 0 {
		t.Fatal("the designs no longer cover both kinds of circuit and a binding cap over parallel edges")
	}
}

// tiedDesign builds a circuit whose paths tie exactly: a register and a
// port each fan out to six identical inverters at one location, each
// inverter drives an identical second inverter there, and every second
// inverter drives its own output port, also co-located.  A NAND of two
// second-stage inverters closes a register-to-register path.
func tiedDesign(t *testing.T) Input {
	t.Helper()
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("tied")
	type at struct{ x, y float64 }
	pos := map[int]at{}
	add := func(name, master string, kind netlist.Kind, x, y float64) int {
		id := c.AddGate(name, master, kind).ID
		pos[id] = at{x, y}
		return id
	}
	connect := func(a, b int) {
		if err := c.Connect(a, b); err != nil {
			t.Fatal(err)
		}
	}
	pi := add("pi", "", netlist.PI, 0, 0)
	ff := add("ff", "DFFX1", netlist.Seq, 0, 0)
	var second []int
	for _, src := range []int{pi, ff} {
		for i := 0; i < 6; i++ {
			a := add("a", "INVX1", netlist.Comb, 10, 10)
			b := add("b", "INVX1", netlist.Comb, 20, 20)
			po := add("po", "", netlist.PO, 30, 30)
			connect(src, a)
			connect(a, b)
			connect(b, po)
			second = append(second, b)
		}
	}
	nd := add("nand", "NAND2X1", netlist.Comb, 25, 25)
	connect(second[0], nd)
	connect(second[6], nd)
	connect(nd, ff)
	masters := make([]*liberty.Master, c.NumGates())
	for _, g := range c.Gates {
		if g.Master != "" {
			masters[g.ID] = lib.MustMaster(g.Master)
		}
	}
	pl := place.New(c, 40, 40, 1.4)
	for id, p := range pos {
		pl.X[id], pl.Y[id] = p.x, p.y
	}
	return Input{Circ: c, Masters: masters, Pl: pl, Node: node}
}

// TestTopPathsTiedDelaysMatchOracle pins the pop order among states with
// equal bounds: on a circuit of parallel identical gates the search must
// return the oracle's paths in the oracle's order.
func TestTopPathsTiedDelaysMatchOracle(t *testing.T) {
	r, err := AnalyzeCtx(context.Background(), tiedDesign(t), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := goldenCase("tied", r)
	want := topPathsHeapOracle(c.circ, c.order, c.arc, c.start, c.end, 100, 0)
	ties := 0
	for i := 1; i < len(want); i++ {
		if math.Float64bits(want[i].Delay) == math.Float64bits(want[i-1].Delay) {
			ties++
		}
	}
	if ties < 4 {
		t.Fatalf("only %d exact ties among %d paths; the design does not exercise tie order", ties, len(want))
	}
	checkAgainstOracle(t, c)
}
