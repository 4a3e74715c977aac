package sta

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

// tiny builds a hand-wired design: pi → inv1 → nand(a,b) → ff, with a
// parallel branch pi2 → inv2 → nand.
func tiny(t *testing.T) (Input, map[string]int) {
	t.Helper()
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("tiny")
	ids := map[string]int{}
	add := func(name, master string, kind netlist.Kind) int {
		id := c.AddGate(name, master, kind).ID
		ids[name] = id
		return id
	}
	pi := add("pi", "", netlist.PI)
	pi2 := add("pi2", "", netlist.PI)
	i1 := add("inv1", "INVX1", netlist.Comb)
	i2 := add("inv2", "INVX2", netlist.Comb)
	nd := add("nand", "NAND2X1", netlist.Comb)
	ff := add("ff", "DFFX1", netlist.Seq)
	po := add("po", "", netlist.PO)
	for _, e := range [][2]int{{pi, i1}, {pi2, i2}, {i1, nd}, {i2, nd}, {nd, ff}, {ff, po}} {
		if err := c.Connect(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	masters := make([]*liberty.Master, c.NumGates())
	for _, g := range c.Gates {
		if g.Master != "" {
			masters[g.ID] = lib.MustMaster(g.Master)
		}
	}
	pl := place.New(c, 100, 100, 1.4)
	// Simple spread so wire delays are nonzero but small.
	for i := range pl.X {
		pl.X[i] = float64(i) * 10
		pl.Y[i] = float64(i%2) * 5
	}
	return Input{Circ: c, Masters: masters, Pl: pl, Node: node}, ids
}

func TestAnalyzeTiny(t *testing.T) {
	in, ids := tiny(t)
	cfg := DefaultConfig()
	r, err := AnalyzeCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Manual check of the inv1 arc: arrival(inv1) = wire(pi,inv1) +
	// delay(INVX1, slew, load).
	pi, i1 := ids["pi"], ids["inv1"]
	wd := in.WireDelay(pi, i1)
	slewIn := cfg.InputSlew + cfg.SlewWireFactor*wd
	m := in.Masters[i1]
	want := wd + m.Delay(0, 0, 0, slewIn, r.Load[i1])
	if math.Abs(r.AOut[i1]-want) > 1e-9 {
		t.Errorf("AOut(inv1) = %v, want %v", r.AOut[i1], want)
	}

	// MCT must equal the FF endpoint arrival (the only register capture
	// is deeper than the PO path through clk-to-q).
	ff := ids["ff"]
	if math.IsNaN(r.AEnd[ff]) {
		t.Fatal("FF must be an endpoint")
	}
	if r.MCT < r.AEnd[ff]-1e-9 {
		t.Errorf("MCT %v below FF endpoint arrival %v", r.MCT, r.AEnd[ff])
	}
}

func TestAnalyzeErrors(t *testing.T) {
	in, _ := tiny(t)
	bad := in
	bad.Masters = bad.Masters[:2]
	if _, err := AnalyzeCtx(context.Background(), bad, DefaultConfig(), nil); err == nil {
		t.Error("master length mismatch should fail")
	}
	empty := Input{Circ: netlist.New("e"), Node: in.Node}
	if _, err := AnalyzeCtx(context.Background(), empty, DefaultConfig(), nil); err == nil {
		t.Error("empty circuit should fail")
	}
}

func TestPerturbMonotone(t *testing.T) {
	in, _ := tiny(t)
	cfg := DefaultConfig()
	base, err := AnalyzeCtx(context.Background(), in, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := in.Circ.NumGates()
	shorter := &Perturb{DL: make([]float64, n)}
	longer := &Perturb{DL: make([]float64, n)}
	for i := 0; i < n; i++ {
		shorter.DL[i] = -10 // dose +5%
		longer.DL[i] = 10   // dose -5%
	}
	fast, err := AnalyzeCtx(context.Background(), in, cfg, shorter)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := AnalyzeCtx(context.Background(), in, cfg, longer)
	if err != nil {
		t.Fatal(err)
	}
	if !(fast.MCT < base.MCT && base.MCT < slow.MCT) {
		t.Errorf("MCT ordering violated: %v %v %v", fast.MCT, base.MCT, slow.MCT)
	}
	// Width increase speeds the circuit up (slightly).
	wider := &Perturb{DW: make([]float64, n)}
	for i := 0; i < n; i++ {
		wider.DW[i] = 10
	}
	fastW, err := AnalyzeCtx(context.Background(), in, cfg, wider)
	if err != nil {
		t.Fatal(err)
	}
	if fastW.MCT >= base.MCT {
		t.Errorf("wider devices should be faster: %v vs %v", fastW.MCT, base.MCT)
	}
}

func TestTopPathsTiny(t *testing.T) {
	in, ids := tiny(t)
	r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	paths := r.TopPaths(10, 0)
	if len(paths) == 0 {
		t.Fatal("no paths")
	}
	// Longest path delay equals MCT.
	if math.Abs(paths[0].Delay-r.MCT) > 1e-6 {
		t.Errorf("top path delay %v != MCT %v", paths[0].Delay, r.MCT)
	}
	// Non-increasing order.
	for i := 1; i < len(paths); i++ {
		if paths[i].Delay > paths[i-1].Delay+1e-9 {
			t.Errorf("paths out of order at %d", i)
		}
	}
	// The tiny circuit has exactly 3 endpoint-terminated paths:
	// pi→inv1→nand→ff, pi2→inv2→nand→ff, ff→po.
	if len(paths) != 3 {
		t.Errorf("path count = %d, want 3", len(paths))
	}
	// Path structure sanity.
	for _, p := range paths {
		start, end := p.Nodes[0], p.Nodes[len(p.Nodes)-1]
		if start != ids["pi"] && start != ids["pi2"] && start != ids["ff"] {
			t.Errorf("path starts at non-startpoint %d", start)
		}
		if end != ids["ff"] && end != ids["po"] {
			t.Errorf("path ends at non-endpoint %d", end)
		}
		if s := p.Slack(r.MCT); s < -1e-9 {
			t.Errorf("negative slack %v at T=MCT", s)
		}
	}
}

// randomDesign builds a random layered DAG design with real masters for
// property tests.
func randomDesign(rng *rand.Rand) Input {
	node := tech.N65()
	lib := liberty.New(node)
	c := netlist.New("rand")
	var level0 []int
	for i := 0; i < 1+rng.Intn(3); i++ {
		level0 = append(level0, c.AddGate("pi", "", netlist.PI).ID)
	}
	ffid := c.AddGate("ff0", "DFFX1", netlist.Seq).ID
	level0 = append(level0, ffid)
	layers := [][]int{level0}
	combMasters := []string{"INVX1", "INVX2", "NAND2X1", "NOR2X1", "BUFX1"}
	nL := 2 + rng.Intn(4)
	for l := 0; l < nL; l++ {
		var cur []int
		for i := 0; i < 1+rng.Intn(4); i++ {
			m := combMasters[rng.Intn(len(combMasters))]
			g := c.AddGate("g", m, netlist.Comb)
			nIn := 1
			if m == "NAND2X1" || m == "NOR2X1" {
				nIn = 2
			}
			for k := 0; k < nIn; k++ {
				ll := layers[rng.Intn(len(layers))]
				_ = c.Connect(ll[rng.Intn(len(ll))], g.ID)
			}
			cur = append(cur, g.ID)
		}
		layers = append(layers, cur)
	}
	// Terminate: every last-layer gate feeds a PO; one feeds the FF.
	last := layers[len(layers)-1]
	_ = c.Connect(last[0], ffid)
	for _, id := range last {
		po := c.AddGate("po", "", netlist.PO)
		_ = c.Connect(id, po.ID)
	}
	masters := make([]*liberty.Master, c.NumGates())
	for _, g := range c.Gates {
		if g.Master != "" {
			masters[g.ID] = lib.MustMaster(g.Master)
		}
	}
	pl := place.New(c, 200, 200, 1.4)
	for i := range pl.X {
		pl.X[i] = rng.Float64() * 180
		pl.Y[i] = rng.Float64() * 180
	}
	return Input{Circ: c, Masters: masters, Pl: pl, Node: node}
}

// bruteForcePaths enumerates every endpoint-terminated path by DFS.
func bruteForcePaths(r *Result) []*Path {
	in := r.In
	var out []*Path
	var dfs func(node int, delay float64, prefix []int)
	dfs = func(node int, delay float64, prefix []int) {
		g := in.Circ.Gates[node]
		prefix = append(prefix, node)
		for _, fo := range g.Fanouts {
			fog := in.Circ.Gates[fo]
			arc := r.ArcDelay(node, fo)
			if fog.Kind == netlist.PO || fog.Kind == netlist.Seq {
				nodes := append(append([]int{}, prefix...), fo)
				out = append(out, &Path{Nodes: nodes, Delay: delay + arc + r.EndWeight(fo)})
			} else {
				dfs(fo, delay+arc, prefix)
			}
		}
	}
	for _, sp := range in.Circ.StartPoints() {
		dfs(sp, r.StartWeight(sp), nil)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Delay > out[b].Delay })
	return out
}

// Property: TopPaths matches brute-force enumeration in count, order and
// delay on random designs, and the longest equals the MCT.
func TestPropertyTopPathsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomDesign(rng)
		r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), nil)
		if err != nil {
			return false
		}
		brute := bruteForcePaths(r)
		got := r.TopPaths(len(brute)+10, 0)
		if len(got) != len(brute) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Delay-brute[i].Delay) > 1e-6 {
				return false
			}
		}
		if len(brute) > 0 && math.Abs(brute[0].Delay-r.MCT) > 1e-6 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: uniformly shortening every gate (higher dose) never increases
// any arrival time, and the MCT strictly improves.
func TestPropertyUniformDoseMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomDesign(rng)
		cfg := DefaultConfig()
		base, err := AnalyzeCtx(context.Background(), in, cfg, nil)
		if err != nil {
			return false
		}
		n := in.Circ.NumGates()
		p := &Perturb{DL: make([]float64, n)}
		for i := range p.DL {
			p.DL[i] = -4
		}
		fast, err := AnalyzeCtx(context.Background(), in, cfg, p)
		if err != nil {
			return false
		}
		for id := range in.Circ.Gates {
			if fast.AOut[id] > base.AOut[id]+1e-9 {
				return false
			}
		}
		return fast.MCT < base.MCT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTopPathsRepeatDeterministic asserts repeated TopPaths calls on the
// same Result return identical paths: the enumeration reads only frozen
// analysis state, so callers (the dosePl rounds, the cut generator) may
// re-extract paths at will without perturbing each other.
func TestTopPathsRepeatDeterministic(t *testing.T) {
	in := mesh(t, 77)
	r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	const k, maxStates = 50, 100000
	a := r.TopPaths(k, maxStates)
	b := r.TopPaths(k, maxStates)
	if len(a) == 0 {
		t.Fatal("no paths enumerated")
	}
	if len(a) != len(b) {
		t.Fatalf("path counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i].Delay) != math.Float64bits(b[i].Delay) {
			t.Fatalf("path %d delay differs: %v vs %v", i, a[i].Delay, b[i].Delay)
		}
		if len(a[i].Nodes) != len(b[i].Nodes) {
			t.Fatalf("path %d node counts differ", i)
		}
		for j := range a[i].Nodes {
			if a[i].Nodes[j] != b[i].Nodes[j] {
				t.Fatalf("path %d diverges at node %d: %d vs %d", i, j, a[i].Nodes[j], b[i].Nodes[j])
			}
		}
	}
}

func TestTopPathsLimits(t *testing.T) {
	in, _ := tiny(t)
	r, err := AnalyzeCtx(context.Background(), in, DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.TopPaths(0, 0); got != nil {
		t.Error("k=0 should return nil")
	}
	if got := r.TopPaths(1, 0); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
	// maxStates cap truncates.
	if got := r.TopPaths(10, 1); len(got) > 1 {
		t.Errorf("maxStates=1 returned %d paths", len(got))
	}
}
