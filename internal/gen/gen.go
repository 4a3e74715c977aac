// Package gen provides the testcase substrate: a deterministic synthetic
// netlist-plus-placement generator with presets that stand in for the
// paper's industrial AES and JPEG designs (Table I).
//
// The original testcases are proprietary Artisan TSMC implementations.
// What the dose-map optimization actually responds to is (a) the cell
// count and die area — which set the cells-per-grid density the paper
// analyses in Section V — and (b) the slack distribution — the "slack
// wall" of Table VII that separates the easy 90 nm cases from the hard
// 65 nm ones.  The generator therefore exposes both as parameters, and
// the presets reproduce Table I's cell counts, die areas, and Table VII's
// criticality profiles.
//
// Layout: gates are placed in dataflow order (logic level → x band, fanin
// locality → y) and legalized into rows, giving connected cells spatial
// locality so that the bounding-box-based dosePl heuristic has realistic
// structure to work with.
package gen

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/sta"

	"repro/internal/liberty"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/tech"
)

// Preset parameterizes one synthetic design.
type Preset struct {
	Name string
	// Tech is the technology node name ("N65" or "N90").
	Tech string
	// Cells is the target standard-cell instance count.
	Cells int
	// ChipW, ChipH are die dimensions in µm.
	ChipW, ChipH float64
	// Depth is the target combinational depth (logic levels).
	Depth int
	// CriticalFrac is the fraction of gates biased into the deepest
	// levels, shaping the body of the endpoint-arrival distribution.
	CriticalFrac float64
	// Crit95, Crit90 and Crit80 are the target cumulative fractions of
	// timing endpoints whose arrival falls within 95-100%, 90-100% and
	// 80-100% of the MCT — the Table VII criticality profile the
	// generator reproduces by arrival-targeted endpoint wiring.
	Crit95, Crit90, Crit80 float64
	// FFFrac is the flip-flop fraction of all cells.
	FFFrac float64
	// PIs, POs are the port counts.
	PIs, POs int
	// LeakAdjust scales library leakage for this design (1 = library
	// default), modelling per-design Vth-assignment mixes; see
	// Library.ScaleLeakage.
	LeakAdjust float64
	// Seed makes generation deterministic.
	Seed int64
}

// The four presets mirror Table I: cell counts and die areas match the
// paper (AES-65: 0.058 mm², 16 187 cells; JPEG-65: 0.268 mm², 68 286;
// AES-90: 0.25 mm², 21 944; JPEG-90: 1.09 mm², 98 555).  Depth and
// criticality are tuned to Table VII's slack profiles: the 65 nm cases
// have a wall of near-critical paths, the 90 nm cases almost none.

// AES65 returns the AES-65 preset.
func AES65() Preset {
	return Preset{
		Name: "AES-65", Tech: "N65", Cells: 16187,
		ChipW: 241, ChipH: 241,
		Depth: 34, CriticalFrac: 0.32, Crit95: 0.1654, Crit90: 0.2898, Crit80: 0.4198, FFFrac: 0.08,
		PIs: 64, POs: 64, Seed: 650001,
	}
}

// JPEG65 returns the JPEG-65 preset.
func JPEG65() Preset {
	return Preset{
		Name: "JPEG-65", Tech: "N65", Cells: 68286,
		ChipW: 518, ChipH: 518,
		Depth: 40, CriticalFrac: 0.12, Crit95: 0.0480, Crit90: 0.0989, Crit80: 0.3023, FFFrac: 0.07,
		PIs: 96, POs: 96, LeakAdjust: 1.56, Seed: 650002,
	}
}

// AES90 returns the AES-90 preset.
func AES90() Preset {
	return Preset{
		Name: "AES-90", Tech: "N90", Cells: 21944,
		ChipW: 500, ChipH: 500,
		Depth: 30, CriticalFrac: 0.03, Crit95: 0.0040, Crit90: 0.0300, Crit80: 0.1900, FFFrac: 0.08,
		PIs: 64, POs: 64, Seed: 900001,
	}
}

// JPEG90 returns the JPEG-90 preset.
func JPEG90() Preset {
	return Preset{
		Name: "JPEG-90", Tech: "N90", Cells: 98555,
		ChipW: 1044, ChipH: 1044,
		Depth: 30, CriticalFrac: 0.008, Crit95: 0.0012, Crit90: 0.0035, Crit80: 0.0392, FFFrac: 0.07,
		PIs: 96, POs: 96, LeakAdjust: 0.40, Seed: 900002,
	}
}

// Presets returns all four Table I presets in paper order.
func Presets() []Preset {
	return []Preset{AES65(), JPEG65(), AES90(), JPEG90()}
}

// PresetByName resolves a preset from its Table I name.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("gen: unknown preset %q", name)
}

// Scaled returns a copy of the preset shrunk by the given factor f in
// cell count (die dimensions shrink by √f so the cells-per-grid density
// is preserved).  Useful for fast tests and benchmarks.
func (p Preset) Scaled(f float64) Preset {
	if f <= 0 || f > 1 {
		return p
	}
	q := p
	q.Cells = int(float64(p.Cells) * f)
	if q.Cells < 200 {
		q.Cells = 200
	}
	s := math.Sqrt(f)
	q.ChipW = p.ChipW * s
	q.ChipH = p.ChipH * s
	if q.Depth > 10 {
		// Keep depth but trim a little so tiny instances still have
		// enough gates per level.
		q.Depth = int(float64(p.Depth) * math.Max(0.5, s))
	}
	q.PIs = max(8, int(float64(p.PIs)*s))
	q.POs = max(8, int(float64(p.POs)*s))
	q.Name = fmt.Sprintf("%s(x%.2f)", p.Name, f)
	return q
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Design bundles everything the flow needs: netlist, library, placement.
type Design struct {
	Preset  Preset
	Node    *tech.Node
	Lib     *liberty.Library
	Circ    *netlist.Circuit
	Pl      *place.Placement
	Masters []*liberty.Master // per gate ID; nil for ports
}

// SetMaster rebinds gate id to a master (used by sizing-style updates).
func (d *Design) SetMaster(id int, m *liberty.Master) {
	d.Masters[id] = m
	d.Circ.Gates[id].Master = m.Name
}

// combFamilies maps fanin count to candidate function families with
// selection weights (roughly production-mix proportions).
var combFamilies = map[int][]struct {
	fn string
	w  float64
}{
	1: {{"INV", 0.7}, {"BUF", 0.3}},
	2: {{"NAND2", 0.35}, {"NOR2", 0.25}, {"XOR2", 0.12}, {"XNOR2", 0.08}, {"AND2", 0.1}, {"OR2", 0.1}},
	3: {{"NAND3", 0.3}, {"NOR3", 0.2}, {"AOI21", 0.2}, {"OAI21", 0.2}, {"MUX2", 0.1}},
	4: {{"NAND4", 0.4}, {"AOI22", 0.3}, {"OAI22", 0.3}},
}

func pickFamily(rng *rand.Rand, fanins int) string {
	fams := combFamilies[fanins]
	r := rng.Float64()
	acc := 0.0
	for _, f := range fams {
		acc += f.w
		if r < acc {
			return f.fn
		}
	}
	return fams[len(fams)-1].fn
}

// driveFor picks a drive strength for the expected fanout count from the
// available variants of the family.
func driveFor(lib *liberty.Library, fn string, fanouts int) *liberty.Master {
	want := 1
	switch {
	case fanouts >= 24:
		want = 16
	case fanouts >= 8:
		want = 8
	case fanouts >= 5:
		want = 4
	case fanouts >= 3:
		want = 2
	}
	best := lib.MustMaster(fmt.Sprintf("%sX1", fn))
	for want > 1 {
		if m, ok := lib.Master(fmt.Sprintf("%sX%d", fn, want)); ok {
			return m
		}
		want /= 2
	}
	return best
}

// GenerateCtx builds the design for a preset.  A canceled context
// aborts the endpoint-rewiring analyses (the expensive phase) with an
// error wrapping context.Canceled.
func GenerateCtx(ctx context.Context, p Preset) (*Design, error) {
	node, err := tech.ByName(p.Tech)
	if err != nil {
		return nil, err
	}
	if p.Cells < 10 || p.Depth < 2 {
		return nil, fmt.Errorf("gen: preset %q too small (cells=%d depth=%d)", p.Name, p.Cells, p.Depth)
	}
	lib := liberty.New(node)
	if p.LeakAdjust > 0 && p.LeakAdjust != 1 {
		lib.ScaleLeakage(p.LeakAdjust)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	circ := netlist.New(p.Name)

	nFF := int(float64(p.Cells) * p.FFFrac)
	if nFF < 1 {
		nFF = 1
	}
	nComb := p.Cells - nFF
	// Reserve headroom for the pad buffers rewireEndpoints inserts
	// (~0.7 per endpoint empirically), keeping the final cell count on
	// the Table I target.
	if p.Crit95 > 0 {
		reserve := int(0.7 * float64(nFF+p.POs))
		if reserve < nComb/2 {
			nComb -= reserve
		}
	}

	// Ports and flip-flops.
	var pis, ffs, pos []int
	for i := 0; i < p.PIs; i++ {
		pis = append(pis, circ.AddGate(fmt.Sprintf("pi%d", i), "", netlist.PI).ID)
	}
	ffMasters := []string{"DFFX1", "DFFX2", "DFFX1", "DFFRX1", "DFFX1", "SDFFX1"}
	for i := 0; i < nFF; i++ {
		m := ffMasters[rng.Intn(len(ffMasters))]
		ffs = append(ffs, circ.AddGate(fmt.Sprintf("ff%d", i), m, netlist.Seq).ID)
	}
	for i := 0; i < p.POs; i++ {
		pos = append(pos, circ.AddGate(fmt.Sprintf("po%d", i), "", netlist.PO).ID)
	}

	// Level plan: distribute combinational gates over levels 1..Depth.
	// CriticalFrac of the gates are biased into the top decile of levels
	// to build the near-critical wall; the rest spread uniformly with a
	// mild front-load (real designs have wide shallow logic).
	levelOf := make([]int, nComb)
	for i := range levelOf {
		if rng.Float64() < p.CriticalFrac {
			lo := int(0.9 * float64(p.Depth))
			levelOf[i] = lo + rng.Intn(p.Depth-lo+1)
		} else {
			// Triangular-ish toward shallow levels.
			a, b := rng.Float64(), rng.Float64()
			levelOf[i] = 1 + int(math.Min(a, b)*float64(p.Depth))
		}
		if levelOf[i] < 1 {
			levelOf[i] = 1
		}
		if levelOf[i] > p.Depth {
			levelOf[i] = p.Depth
		}
	}
	// Bucket by level; every level must be populated or deep chains break.
	buckets := make([][]int, p.Depth+1)
	for i, l := range levelOf {
		buckets[l] = append(buckets[l], i)
	}
	for l := 1; l <= p.Depth; l++ {
		if len(buckets[l]) == 0 {
			// Steal a gate from the largest bucket.
			big := 1
			for k := 1; k <= p.Depth; k++ {
				if len(buckets[k]) > len(buckets[big]) {
					big = k
				}
			}
			g := buckets[big][len(buckets[big])-1]
			buckets[big] = buckets[big][:len(buckets[big])-1]
			buckets[l] = append(buckets[l], g)
		}
	}

	// Spatial clusters (datapath bit-slice analogue): gates connect
	// mostly within their own cluster, and clusters map to horizontal
	// placement bands.  This gives the netlist the wire locality of a
	// real placed-and-routed design; without it nets span the die and
	// wire capacitance dominates every stage delay.
	nClusters := int(math.Max(4, math.Min(64, p.ChipH/16)))
	clusterOf := make(map[int]int)
	level0 := append(append([]int{}, pis...), ffs...)
	for i, id := range level0 {
		clusterOf[id] = i % nClusters
	}
	byLevel := make([][][]int, p.Depth+1) // [level][cluster][]gate
	for l := range byLevel {
		byLevel[l] = make([][]int, nClusters)
	}
	for _, id := range level0 {
		byLevel[0][clusterOf[id]] = append(byLevel[0][clusterOf[id]], id)
	}
	fanoutCount := make(map[int]int)

	pickDriver := func(maxLevel, cluster int, rng *rand.Rand) int {
		// Prefer the immediately preceding level in the same cluster
		// (chain structure); otherwise a recent level in the same or a
		// neighboring cluster.  Real netlists are local — long
		// cross-chip nets are rare.
		const window = 6
		for tries := 0; tries < 12; tries++ {
			l := maxLevel
			c := cluster
			if tries > 0 {
				lo := maxLevel - window
				if lo < 0 {
					lo = 0
				}
				l = lo + rng.Intn(maxLevel-lo+1)
				if tries > 6 {
					// Occasional neighbor-cluster (global net) hop.
					c = cluster + rng.Intn(3) - 1
					if c < 0 {
						c = 0
					}
					if c >= nClusters {
						c = nClusters - 1
					}
				}
			}
			cands := byLevel[l][c]
			if len(cands) == 0 {
				continue
			}
			id := cands[rng.Intn(len(cands))]
			if fanoutCount[id] < 10 {
				return id
			}
		}
		// Give up on cluster and fanout caps.
		for l := maxLevel; l >= 0; l-- {
			for c := 0; c < nClusters; c++ {
				if len(byLevel[l][c]) > 0 {
					return byLevel[l][c][rng.Intn(len(byLevel[l][c]))]
				}
			}
		}
		return level0[0]
	}

	// Instantiate combinational gates level by level.
	for l := 1; l <= p.Depth; l++ {
		for range buckets[l] {
			nIn := 1 + rng.Intn(4)
			fn := pickFamily(rng, nIn)
			fo := 1 + rng.Intn(4) // estimated fanout for drive selection
			m := driveFor(lib, fn, fo)
			g := circ.AddGate(fmt.Sprintf("u%d", circ.NumGates()), m.Name, netlist.Comb)
			cluster := rng.Intn(nClusters)
			// First fanin from level l-1 to guarantee the level.
			d0 := pickDriver(l-1, cluster, rng)
			// Inherit the first driver's cluster: chains stay in-band.
			cluster = clusterOf[d0]
			clusterOf[g.ID] = cluster
			if err := circ.Connect(d0, g.ID); err != nil {
				return nil, err
			}
			fanoutCount[d0]++
			for k := 1; k < nIn; k++ {
				d := pickDriver(l-1, cluster, rng)
				if err := circ.Connect(d, g.ID); err != nil {
					return nil, err
				}
				fanoutCount[d]++
			}
			byLevel[l][cluster] = append(byLevel[l][cluster], g.ID)
		}
	}

	// Terminate dangling outputs into FF D-inputs and POs (every FF
	// needs exactly one D driver; every PO exactly one driver).  This is
	// seed wiring only: after placement, rewireEndpoints retargets each
	// endpoint to a driver whose arrival matches the preset's Table VII
	// criticality profile.  Unused dangling gates remain as dead logic
	// (they still contribute area and leakage, like real spare cells).
	var dangling []int
	for _, g := range circ.Gates {
		if (g.Kind == netlist.Comb) && len(g.Fanouts) == 0 {
			dangling = append(dangling, g.ID)
		}
	}
	rng.Shuffle(len(dangling), func(i, j int) { dangling[i], dangling[j] = dangling[j], dangling[i] })
	anyDeepGate := func() int {
		for l := p.Depth; l >= 1; l-- {
			for c := 0; c < nClusters; c++ {
				if len(byLevel[l][c]) > 0 {
					return byLevel[l][c][rng.Intn(len(byLevel[l][c]))]
				}
			}
		}
		return level0[0]
	}
	di := 0
	takeDriver := func() int {
		if di < len(dangling) {
			di++
			return dangling[di-1]
		}
		return anyDeepGate()
	}
	for _, ep := range append(append([]int{}, ffs...), pos...) {
		if err := circ.Connect(takeDriver(), ep); err != nil {
			return nil, err
		}
	}

	if err := circ.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated netlist invalid: %w", err)
	}

	// Resolve masters per gate.
	masters := make([]*liberty.Master, circ.NumGates())
	for _, g := range circ.Gates {
		if g.Master == "" {
			continue
		}
		m, ok := lib.Master(g.Master)
		if !ok {
			return nil, fmt.Errorf("gen: gate %q references unknown master %q", g.Name, g.Master)
		}
		masters[g.ID] = m
	}

	// Placement: dataflow x bands by level, fanin-locality y, legalized.
	rowH := 1.4 * node.Lnom / 65
	pl := place.New(circ, p.ChipW, p.ChipH, rowH)
	levels, err := circ.Levelize()
	if err != nil {
		return nil, err
	}
	maxLevel := 1
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	margin := 2.0
	for _, g := range circ.Gates {
		id := g.ID
		switch g.Kind {
		case netlist.PI:
			pl.X[id] = 0
			pl.Y[id] = p.ChipH * float64(id%len(pis)) / float64(len(pis))
		case netlist.PO:
			pl.X[id] = p.ChipW
			pl.Y[id] = p.ChipH * rng.Float64()
		default:
			frac := float64(levels[id]) / float64(maxLevel)
			pl.X[id] = margin + frac*(p.ChipW-2*margin)*0.92 + rng.Float64()*0.08*p.ChipW
			band := p.ChipH / float64(nClusters)
			c, ok := clusterOf[id]
			if !ok {
				c = rng.Intn(nClusters)
			}
			pl.Y[id] = (float64(c) + rng.Float64()) * band
			if pl.Y[id] > p.ChipH-rowH {
				pl.Y[id] = p.ChipH - rowH
			}
			pl.Width[id] = masters[id].Area / rowH
			if pl.X[id]+pl.Width[id] > p.ChipW {
				pl.X[id] = p.ChipW - pl.Width[id]
			}
		}
	}
	if err := pl.AssignRows(0.92); err != nil {
		return nil, fmt.Errorf("gen: row assignment failed: %w", err)
	}
	if _, err := pl.Legalize(); err != nil {
		return nil, fmt.Errorf("gen: legalization failed: %w", err)
	}

	d := &Design{Preset: p, Node: node, Lib: lib, Circ: circ, Pl: pl, Masters: masters}
	if err := rewireEndpoints(ctx, d, rng); err != nil {
		return nil, err
	}
	if err := circ.Validate(); err != nil {
		return nil, fmt.Errorf("gen: netlist invalid after endpoint rewiring: %w", err)
	}
	return d, nil
}

// rewireEndpoints retargets every flip-flop D input and primary output
// so that endpoint arrival times reproduce the preset's Table VII
// criticality profile (the 65 nm "slack wall" versus the relaxed 90 nm
// distributions).
//
// Each endpoint gets a target arrival sampled from the profile; it is
// rewired to the combinational driver whose arrival sits closest below
// the target, and the residual gap is padded with a buffer chain whose
// delay is computed from the device model — exactly how synthesized
// netlists hit register timing with buffer insertion.  One analysis
// drives the whole assignment, so the procedure is deterministic and
// does not oscillate.
func rewireEndpoints(ctx context.Context, d *Design, rng *rand.Rand) error {
	p := d.Preset
	if p.Crit95 <= 0 {
		return nil // no profile requested
	}
	cfg := sta.DefaultConfig()
	in := sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
	r, err := sta.AnalyzeCtx(ctx, in, cfg, nil)
	if err != nil {
		return err
	}

	// Candidate drivers sorted by arrival.
	type cand struct {
		id  int
		arr float64
	}
	var cands []cand
	maxArr := 0.0
	argMax := -1
	for id, g := range d.Circ.Gates {
		if g.Kind != netlist.Comb {
			continue
		}
		cands = append(cands, cand{id, r.AOut[id]})
		if r.AOut[id] > maxArr {
			maxArr = r.AOut[id]
			argMax = id
		}
	}
	if argMax < 0 {
		return fmt.Errorf("gen: no combinational drivers for endpoint rewiring")
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].arr < cands[b].arr })

	var endpoints []int
	for id, g := range d.Circ.Gates {
		if (g.Kind == netlist.Seq || g.Kind == netlist.PO) && len(g.Fanins) == 1 {
			endpoints = append(endpoints, id)
		}
	}
	rng.Shuffle(len(endpoints), func(i, j int) { endpoints[i], endpoints[j] = endpoints[j], endpoints[i] })

	// The anchor endpoint captures the deepest cone and defines the MCT
	// everything else is targeted against.
	anchor := endpoints[0]
	over := func(ep int) float64 {
		g := d.Circ.Gates[ep]
		o := in.WireDelay(g.Fanins[0], ep)
		if m := d.Masters[ep]; m != nil {
			o += m.Setup
		}
		return o
	}
	mct0 := maxArr + over(anchor)

	fanout := func(id int) int { return len(d.Circ.Gates[id].Fanouts) }
	// closestBelow returns the candidate with the largest arrival ≤ want
	// that still has fanout headroom.
	closestBelow := func(want float64) cand {
		lo, hi := 0, len(cands)
		for lo < hi {
			mid := (lo + hi) / 2
			if cands[mid].arr <= want {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for idx := lo - 1; idx >= 0; idx-- {
			if fanout(cands[idx].id) < 12 {
				return cands[idx]
			}
		}
		return cands[0]
	}

	buf := d.Lib.MustMaster("BUFX2")
	rowH := d.Pl.RowHeight
	node := d.Node
	cwire := func(dist float64) float64 { return 0.5 * node.WireRPerUm * dist * node.WireCPerUm * dist }

	// planChain sizes a pad chain to consume a delay gap.  Small gaps use
	// tightly packed buffers; large gaps use wire-detour stages (a buffer
	// placed ~hop µm away), which is both how real slow paths look and
	// far cheaper in cell count than hundreds of back-to-back buffers.
	const hop = 140.0
	type stage struct{ dist float64 }
	planChain := func(startSlew, gap float64) []stage {
		if gap <= 0 {
			return nil
		}
		slew := startSlew
		total := 0.0
		var plan []stage
		for len(plan) < 64 {
			dist := 3.0
			load := buf.CIn + node.WireCPerUm*dist
			wd := cwire(dist)
			slewIn := slew + cfg.SlewWireFactor*wd
			small := wd + buf.Delay(0, 0, 0, slewIn, load)
			// Try a wire-detour stage when the gap warrants it.
			distL := hop
			loadL := buf.CIn + node.WireCPerUm*distL
			wdL := cwire(distL)
			slewInL := slew + cfg.SlewWireFactor*wdL
			large := wdL + buf.Delay(0, 0, 0, slewInL, loadL)
			var st float64
			if gap-total > large+small/2 {
				dist, st = distL, large
				slew = buf.OutSlew(0, 0, 0, slewInL, loadL)
			} else {
				st = small
				slew = buf.OutSlew(0, 0, 0, slewIn, load)
			}
			if total+st/2 >= gap {
				break
			}
			plan = append(plan, stage{dist})
			total += st
		}
		return plan
	}

	// addChain realizes a planned chain from drv, returning its last gate.
	addChain := func(drv int, plan []stage) (int, error) {
		prev := drv
		dir := 1.0
		for k, st := range plan {
			g := d.Circ.AddGate(fmt.Sprintf("pad%d", d.Circ.NumGates()), buf.Name, netlist.Comb)
			d.Masters = append(d.Masters, buf)
			x := d.Pl.X[prev] + dir*st.dist
			if x < 1 || x > d.Pl.ChipW-2 {
				dir = -dir
				x = d.Pl.X[prev] + dir*st.dist
				if x < 1 {
					x = 1
				}
				if x > d.Pl.ChipW-2 {
					x = d.Pl.ChipW - 2
				}
			}
			y := d.Pl.Y[prev] + rowH*float64(1+k%3)
			if y > d.Pl.ChipH-rowH {
				y = d.Pl.ChipH - rowH
			}
			d.Pl.X = append(d.Pl.X, x)
			d.Pl.Y = append(d.Pl.Y, y)
			d.Pl.Width = append(d.Pl.Width, buf.Area/rowH)
			if err := d.Circ.Connect(prev, g.ID); err != nil {
				return -1, err
			}
			prev = g.ID
		}
		return prev, nil
	}

	// Sample stable per-endpoint targets once.
	target := make(map[int]float64, len(endpoints))
	for i, ep := range endpoints {
		if i == 0 {
			target[ep] = 1 // the anchor defines the MCT
			continue
		}
		u := rng.Float64()
		switch {
		case u < p.Crit95:
			target[ep] = 0.952 + 0.032*rng.Float64()
		case u < p.Crit90:
			target[ep] = 0.903 + 0.048*rng.Float64()
		case u < p.Crit80:
			target[ep] = 0.803 + 0.098*rng.Float64()
		default:
			target[ep] = 0.45 + 0.35*rng.Float64()
		}
	}

	touched := make(map[int]bool)
	retarget := func(ep int, tgt, mct float64, slews []float64) error {
		g := d.Circ.Gates[ep]
		old := g.Fanins[0]
		epOver := over(ep)
		var drv cand
		if tgt >= 1 {
			drv = cand{argMax, maxArr}
		} else {
			drv = closestBelow(tgt*mct - epOver)
		}
		if old == drv.id {
			return nil
		}
		if !d.Circ.Disconnect(old, ep) {
			return fmt.Errorf("gen: failed to disconnect endpoint %d", ep)
		}
		src := drv.id
		touched[drv.id] = true
		if tgt < 1 {
			gap := tgt*mct - epOver - drv.arr
			if plan := planChain(slews[drv.id], gap); len(plan) > 0 {
				last, err := addChain(drv.id, plan)
				if err != nil {
					return err
				}
				src = last
			}
		}
		return d.Circ.Connect(src, ep)
	}

	sort.SliceStable(endpoints, func(a, b int) bool { return target[endpoints[a]] > target[endpoints[b]] })
	for _, ep := range endpoints {
		if err := retarget(ep, target[ep], mct0, r.Slew); err != nil {
			return err
		}
	}

	// Resize only the drivers that accumulated endpoint fanout, as an
	// incremental synthesis fix-up; then re-legalize the rows including
	// the pad buffers.
	for id := range touched {
		g := d.Circ.Gates[id]
		m := d.Masters[id]
		if m == nil || g.Kind != netlist.Comb {
			continue
		}
		up := driveFor(d.Lib, m.Func, len(g.Fanouts))
		if up != nil && up.Drive > m.Drive {
			d.SetMaster(id, up)
		}
	}
	if err := d.Pl.AssignRows(0.92); err != nil {
		return err
	}
	if _, err := d.Pl.Legalize(); err != nil {
		return err
	}

	// Refinement: the resizing and pad loads inflate the final MCT above
	// the first estimate; re-pad endpoints that drifted out of band,
	// now against the measured MCT.  Padding is accurate, so two passes
	// suffice.
	tols := []float64{0.02, 0.012, 0.009, 0.007, 0.006, 0.006}
	for pass := 0; pass < len(tols); pass++ {
		// Rebuild the input view: addChain appends to the design slices,
		// so earlier slice headers are stale.
		in = sta.Input{Circ: d.Circ, Masters: d.Masters, Pl: d.Pl, Node: d.Node}
		r, err = sta.AnalyzeCtx(ctx, in, cfg, nil)
		if err != nil {
			return err
		}
		// Refresh candidate arrivals (same gates + any pads).
		cands = cands[:0]
		for id, g := range d.Circ.Gates {
			if g.Kind == netlist.Comb {
				cands = append(cands, cand{id, r.AOut[id]})
			}
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].arr < cands[b].arr })
		mctRef := r.MCT
		moved := 0
		for _, ep := range endpoints {
			tgt := target[ep]
			if tgt >= 1 {
				continue
			}
			cur := r.AEnd[ep] / mctRef
			// Endpoints that crept above the anchor cone would ratchet
			// the MCT upward pass after pass; always pull them back.
			overshoot := cur > 0.99 && tgt < 0.99
			if !overshoot && math.Abs(cur-tgt) <= tols[pass] {
				continue
			}
			if err := retarget(ep, tgt, mctRef, r.Slew); err != nil {
				return err
			}
			moved++
		}
		if moved <= len(endpoints)/100 {
			break
		}
		if err := d.Pl.AssignRows(0.92); err != nil {
			return err
		}
		if _, err := d.Pl.Legalize(); err != nil {
			return err
		}
	}
	return nil
}
