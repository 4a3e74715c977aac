// Package expt is the benchmark harness: it regenerates every table and
// figure of the paper's evaluation (Tables I-VIII, Figs. 2-6 and 10) as
// structured row data, shared by cmd/tables, the examples and the
// testing.B benchmarks at the module root.
//
// Absolute numbers come from the synthetic substrate and differ from the
// paper's testbed; the harness exists to reproduce the *shape* of each
// result: who wins, by what factor, and where the crossovers fall.
package expt

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dosemap"
	"repro/internal/gen"
	"repro/internal/liberty"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/place"
	"repro/internal/power"
	"repro/internal/sta"
	"repro/internal/tech"
)

// Table is one reproduced table or figure as printable rows.
type Table struct {
	ID     string // e.g. "Table IV", "Fig. 3"
	Title  string
	Header []string
	Rows   [][]string
	// Notes carries reproduction caveats for EXPERIMENTS.md.
	Notes string
}

// Format renders the table as aligned plain text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat(" --- |", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	return b.String()
}

// Context caches generated designs and golden analyses across
// experiments (several tables share the same testcases).
//
// A Context is safe for concurrent use: every staged artifact is built
// at most once per testcase even under concurrent callers, and the
// experiments that mutate a cached design's placement in place
// (TableVIIICtx, Fig10ProfilesCtx) serialize on an internal lock.  Every
// experiment's numbers are bit-identical for every worker count.
type Context struct {
	// Scale shrinks every preset (1 = the full Table I sizes).
	Scale float64
	// K is the top-path count for path-based experiments.
	K int
	// Workers bounds the fan-out across independent units of work:
	// concurrent table regeneration, table rows, optimization chains,
	// dose- and bias-sweep points, wafer fields and column groups, and
	// the model fits of the cached artifact builds.  A run inside an
	// optimization chain or a sweep point uses one worker, and every
	// QP/QCP solve and STA analysis runs on one goroutine.  Zero
	// selects runtime.GOMAXPROCS(0).
	Workers int

	// cache holds the design → golden → model → compiled artifacts
	// api.Prepare builds, unbounded and unmetered; nil builds every
	// stage cold (the equivalence tests' setting).
	cache *api.Cache
	// plMu serializes the experiments that mutate a cached design's
	// placement (TableVIIICtx, Fig10ProfilesCtx): they snapshot and restore
	// cell positions and must not interleave with each other or with
	// concurrent placement readers of the same design.
	plMu sync.Mutex
}

// Option configures a Context.
type Option func(*Context)

// WithScale shrinks every preset by the given factor in (0, 1];
// anything out of range selects the full Table I sizes.
func WithScale(scale float64) Option {
	return func(c *Context) { c.Scale = scale }
}

// WithTopK sets the top-path count for path-based experiments; k ≤ 0
// selects the paper's 10 000.
func WithTopK(k int) Option {
	return func(c *Context) { c.K = k }
}

// WithWorkers bounds the harness's parallel fan-out; n ≤ 0 selects
// runtime.GOMAXPROCS(0).
func WithWorkers(n int) Option {
	return func(c *Context) { c.Workers = n }
}

// New returns a harness context with the paper's configuration (full
// Table I design sizes, K = 10 000, GOMAXPROCS workers), adjusted by
// the options.
func New(opts ...Option) *Context {
	c := &Context{Scale: 1, K: 10000}
	for _, o := range opts {
		o(c)
	}
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.K <= 0 {
		c.K = 10000
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	c.cache = api.NewCache(nil, 0)
	return c
}

// spec describes a run on a preset as a job at the harness's scale and
// worker budget; callers add the grid, layers and actuators.
func (c *Context) spec(name string) api.JobSpec {
	return api.JobSpec{Design: name, Scale: c.Scale, Workers: c.Workers}
}

// prepare resolves a run's artifacts through the harness cache and
// returns them with the spec's solve options.
func (c *Context) prepare(ctx context.Context, spec api.JobSpec) (api.Artifacts, core.Options, error) {
	art, err := api.Prepare(ctx, spec, c.cache)
	if err != nil {
		return api.Artifacts{}, core.Options{}, err
	}
	opt, err := spec.Options()
	return art, opt, err
}

// DesignCtx returns the (cached) design for a preset name.  Concurrent
// callers for the same preset share a single generation.
func (c *Context) DesignCtx(ctx context.Context, name string) (*gen.Design, error) {
	return api.Design(ctx, c.spec(name), c.cache)
}

// GoldenCtx returns the (cached) nominal analysis for a preset name.
// Concurrent callers for the same preset share a single analysis.
func (c *Context) GoldenCtx(ctx context.Context, name string) (*sta.Result, error) {
	return api.Golden(ctx, c.spec(name), c.cache)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string {
	return fmt.Sprintf("%.2f", 100*v)
}

// --- Figs. 3-6: cell-level dose response ---------------------------------

// figCell sweeps an INVX1 and reports delay or leakage against ΔL or ΔW.
func figCell(id, title string, node *tech.Node, vsLength, delay bool) *Table {
	lib := liberty.New(node)
	m := lib.MustMaster("INVX1")
	t := &Table{ID: id, Title: title}
	if vsLength {
		t.Header = []string{"Lgate (nm)"}
	} else {
		t.Header = []string{"ΔW (nm)"}
	}
	if delay {
		t.Header = append(t.Header, "delay (ps)")
	} else {
		t.Header = append(t.Header, "leakage (nW)")
	}
	const slew, load = 30.0, 4.0
	for d := -10.0; d <= 10.0+1e-9; d += 2 {
		var x, v float64
		if vsLength {
			x = node.Lnom + d
			if delay {
				v = m.Delay(d, 0, 0, slew, load)
			} else {
				v = m.Leakage(d, 0, 0)
			}
		} else {
			x = d
			if delay {
				v = m.Delay(0, d, 0, slew, load)
			} else {
				v = m.Leakage(0, d, 0)
			}
		}
		t.Rows = append(t.Rows, []string{f1(x), f3(v)})
	}
	return t
}

// Fig3 reproduces "Delay of an inverter versus gate length" (≈linear).
func Fig3() *Table {
	return figCell("Fig. 3", "INVX1 delay vs gate length (65 nm)", tech.N65(), true, true)
}

// Fig4 reproduces "Delay of an inverter versus change in gate width".
func Fig4() *Table {
	return figCell("Fig. 4", "INVX1 delay vs gate-width change (65 nm)", tech.N65(), false, true)
}

// Fig5 reproduces "Average leakage vs gate length" (exponential).
func Fig5() *Table {
	return figCell("Fig. 5", "INVX1 leakage vs gate length (65 nm)", tech.N65(), true, false)
}

// Fig6 reproduces "Average leakage vs change in gate width" (linear).
func Fig6() *Table {
	return figCell("Fig. 6", "INVX1 leakage vs gate-width change (65 nm)", tech.N65(), false, false)
}

// Fig2 reports the dose-to-CD relation (dose sensitivity, Section II-A).
func Fig2() *Table {
	t := &Table{
		ID:     "Fig. 2",
		Title:  fmt.Sprintf("dose sensitivity: CD vs dose change (Ds = %g nm/%%)", tech.DoseSensitivity),
		Header: []string{"dose Δ (%)", "ΔCD (nm)", "CD at 65 nm (nm)"},
	}
	for d := -5.0; d <= 5.0+1e-9; d += 1 {
		dl := tech.DoseToLength(d)
		t.Rows = append(t.Rows, []string{f1(d), f1(dl), f1(65 + dl)})
	}
	return t
}

// --- Table I: testcase characteristics -----------------------------------

// TableICtx reports the generated designs' characteristics; the
// per-design generations fan out across workers.
func (c *Context) TableICtx(ctx context.Context) (*Table, error) {
	ctx, sp := obs.Start(ctx, "expt/Table I")
	defer sp.End()
	t := &Table{
		ID:     "Table I",
		Title:  "characteristics of the synthetic testcases (Artisan TSMC stand-ins)",
		Header: []string{"Design", "Chip size (mm²)", "#Cell instances", "#Nets", "depth", "#FF"},
	}
	presets := gen.Presets()
	rows, err := par.Map(ctx, len(presets), par.Workers(c.Workers), func(i int) ([]string, error) {
		p := presets[i]
		d, err := c.DesignCtx(ctx, p.Name)
		if err != nil {
			return nil, err
		}
		st, err := d.Circ.Stats()
		if err != nil {
			return nil, err
		}
		area := d.Pl.ChipW * d.Pl.ChipH / 1e6
		return []string{
			p.Name, f3(area), fmt.Sprint(st.Cells), fmt.Sprint(st.Nets),
			fmt.Sprint(st.Depth), fmt.Sprint(st.Seq),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	if c.Scale < 1 {
		t.Notes = fmt.Sprintf("designs scaled by %.2f for this run", c.Scale)
	}
	return t, nil
}

// --- Tables II-III: uniform dose sweep -----------------------------------

// DoseSweepRow is one point of the uniform-dose sweep.
type DoseSweepRow struct {
	Dose    float64
	MCTns   float64
	MCTImp  float64 // percent, positive is better
	LeakUW  float64
	LeakImp float64 // percent, positive is better
}

// DoseSweepCtx sweeps a uniform poly-layer dose across the whole design
// and reports golden MCT and leakage at each point (Tables II and III).
// The sweep points are independent full golden analyses and fan out
// across workers; rows come back in dose order and are bit-identical
// for every worker count.
func (c *Context) DoseSweepCtx(ctx context.Context, design string, doses []float64) ([]DoseSweepRow, error) {
	d, err := c.DesignCtx(ctx, design)
	if err != nil {
		return nil, err
	}
	in := core.InputOf(d)
	cfg := sta.DefaultConfig()
	n := d.Circ.NumGates()
	workers := par.Workers(c.Workers)

	if workers == 1 {
		// Serial sweep: one incremental timer shared by every point
		// re-times only the dose-change cones instead of running a cold
		// analysis per dose.  The timer's bit-identity contract keeps the
		// rows equal to the parallel path's full analyses.
		tm, err := sta.NewTimerCtx(ctx, in, cfg, nil)
		if err != nil {
			return nil, err
		}
		nomMCT := tm.Result().MCT
		nomLeak := power.Total(in.Masters, nil, nil, nil)
		rows := make([]DoseSweepRow, len(doses))
		dl := make([]float64, n) // reused: Update copies the perturbation
		for i, dose := range doses {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for id, m := range d.Masters {
				if m != nil {
					dl[id] = tech.DoseToLength(dose)
				}
			}
			r := tm.Update(&sta.Perturb{DL: dl})
			leak := power.Total(in.Masters, dl, nil, nil)
			rows[i] = DoseSweepRow{
				Dose:    dose,
				MCTns:   r.MCT / 1000,
				MCTImp:  100 * (1 - r.MCT/nomMCT),
				LeakUW:  leak,
				LeakImp: 100 * (1 - leak/nomLeak),
			}
		}
		return rows, nil
	}

	nomEval, _, err := core.EvalPerturbCtx(ctx, in, cfg, nil)
	if err != nil {
		return nil, err
	}
	// The points fan out across workers; either split of the same work
	// yields bit-identical rows.
	return par.Map(ctx, len(doses), workers, func(i int) (DoseSweepRow, error) {
		dose := doses[i]
		dl := make([]float64, n)
		for id, m := range d.Masters {
			if m != nil {
				dl[id] = tech.DoseToLength(dose)
			}
		}
		ev, _, err := core.EvalPerturbCtx(ctx, in, cfg, &sta.Perturb{DL: dl})
		if err != nil {
			return DoseSweepRow{}, err
		}
		return DoseSweepRow{
			Dose:    dose,
			MCTns:   ev.MCTps / 1000,
			MCTImp:  100 * (1 - ev.MCTps/nomEval.MCTps),
			LeakUW:  ev.LeakUW,
			LeakImp: 100 * (1 - ev.LeakUW/nomEval.LeakUW),
		}, nil
	})
}

// SweepDoses returns the paper's 21 sweep points 0, ±0.5, …, ±5.
func SweepDoses() []float64 {
	out := []float64{0}
	for d := 0.5; d <= 5+1e-9; d += 0.5 {
		out = append(out, -d, d)
	}
	sort.Float64s(out)
	return out
}

// BiasSweepRow is one point of the uniform body-bias sweep.
type BiasSweepRow struct {
	BiasV   float64
	MCTns   float64
	MCTImp  float64 // percent, positive is better
	LeakUW  float64
	LeakImp float64 // percent, positive is better
}

// BiasSweepCtx sweeps a uniform body-bias voltage across the whole
// design — the bias analogue of the Tables II-III dose sweep: each
// point shifts every cell's threshold by the node's body factor and
// re-runs golden timing and leakage.  Like a uniform dose, a uniform
// bias trades the two metrics and cannot win both; the per-domain
// co-optimization is what breaks the tradeoff.
func (c *Context) BiasSweepCtx(ctx context.Context, design string, biases []float64) ([]BiasSweepRow, error) {
	d, err := c.DesignCtx(ctx, design)
	if err != nil {
		return nil, err
	}
	in := core.InputOf(d)
	cfg := sta.DefaultConfig()
	n := d.Circ.NumGates()
	workers := par.Workers(c.Workers)

	nomEval, _, err := core.EvalPerturbCtx(ctx, in, cfg, nil)
	if err != nil {
		return nil, err
	}
	return par.Map(ctx, len(biases), workers, func(i int) (BiasSweepRow, error) {
		b := biases[i]
		dvth := make([]float64, n)
		for id, m := range d.Masters {
			if m != nil {
				dvth[id] = in.Node.BodyBiasDVth(b)
			}
		}
		ev, _, err := core.EvalPerturbCtx(ctx, in, cfg, &sta.Perturb{DVth: dvth})
		if err != nil {
			return BiasSweepRow{}, err
		}
		return BiasSweepRow{
			BiasV:   b,
			MCTns:   ev.MCTps / 1000,
			MCTImp:  100 * (1 - ev.MCTps/nomEval.MCTps),
			LeakUW:  ev.LeakUW,
			LeakImp: 100 * (1 - ev.LeakUW/nomEval.LeakUW),
		}, nil
	})
}

// SweepBiases returns the body-bias sweep lattice -0.2, …, +0.1 V in
// liberty.BiasStepV steps.
func SweepBiases() []float64 {
	var out []float64
	for b := core.DefaultBiasLo; b <= core.DefaultBiasHi+1e-9; b += liberty.BiasStepV {
		out = append(out, b)
	}
	return out
}

func (c *Context) doseSweepTable(ctx context.Context, id, design string) (*Table, error) {
	ctx, sp := obs.Start(ctx, "expt/"+id)
	defer sp.End()
	rows, err := c.DoseSweepCtx(ctx, design, SweepDoses())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("delay and leakage of %s under uniform poly-layer dose change", design),
		Header: []string{"dose Δ (%)", "MCT (ns)", "imp. (%)", "Leakage (µW)", "imp. (%)"},
		Notes:  "uniform dose trades timing against leakage and cannot win both (Section V)",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			f1(r.Dose), f3(r.MCTns), f2(r.MCTImp), f1(r.LeakUW), f2(r.LeakImp),
		})
	}
	return t, nil
}

// TableIICtx is the AES-65 uniform dose sweep.
func (c *Context) TableIICtx(ctx context.Context) (*Table, error) {
	return c.doseSweepTable(ctx, "Table II", "AES-65")
}

// TableIIICtx is the AES-90 uniform dose sweep.
func (c *Context) TableIIICtx(ctx context.Context) (*Table, error) {
	return c.doseSweepTable(ctx, "Table III", "AES-90")
}

// --- Table IV: DMopt on poly layer ----------------------------------------

// DMRow is one optimization outcome for the results tables.
type DMRow struct {
	Design  string
	GridUm  float64
	Kind    string // "QP" or "QCP" (or an actuator mode label)
	MCTns   float64
	MCTImp  float64
	LeakUW  float64
	LeakImp float64
	Domains int // bias domains (0 for dose-only rows)
	Runtime time.Duration
}

// gridsFor returns the paper's grid sizes per node: 5/10/30 µm at 65 nm
// and 5/10/50 µm at 90 nm.  Grid sizes are NOT scaled with the design:
// a scaled die with the same G preserves the paper's cells-per-grid
// density, which is what drives the optimization quality (Section V).
func gridsFor(design string, scale float64) []float64 {
	if strings.HasSuffix(design, "-90") {
		return []float64{5, 10, 50}
	}
	return []float64{5, 10, 30}
}

// RunDMCtx runs one DMopt configuration on a design; the fit, solver
// and signoff all run with the harness worker knob.
func (c *Context) RunDMCtx(ctx context.Context, design string, gridUm float64, qcp, bothLayers bool) (*core.Result, error) {
	return c.runDMActuators(ctx, design, gridUm, qcp, bothLayers, 0, "", c.Workers)
}

// runDMActuators is RunDMCtx with a warm-bracket seed (seedTau > 0
// passes a related run's achieved clock period into the QCP
// bisection), an actuator selection (a JobSpec Actuators value: "" for
// the historical dose-only run, "bias" or "joint") and the worker
// budget of the run's own fan-out (signoff STA); the cached model fit
// keeps the harness budget.
func (c *Context) runDMActuators(ctx context.Context, design string, gridUm float64, qcp, bothLayers bool, seedTau float64, actuators string, workers int) (*core.Result, error) {
	spec := c.spec(design)
	spec.GridUm = gridUm
	spec.BothLayers = bothLayers
	spec.Actuators = actuators
	art, opt, err := c.prepare(ctx, spec)
	if err != nil {
		return nil, err
	}
	opt.Workers = workers
	if qcp {
		opt.SeedTau = seedTau
		return core.SolveQCP(ctx, core.QCPRequest{Compiled: art.Compiled, Opt: opt})
	}
	// Tighten τ a hair below the nominal MCT: the optimizer's linear
	// delay model misses the slew compounding the golden analysis sees,
	// so a small guard band keeps the signoff at or under nominal.
	return core.SolveQP(ctx, core.QPRequest{Compiled: art.Compiled, Opt: opt, TauPs: 0.99 * art.Golden.MCT})
}

func dmRow(design string, g float64, kind string, r *core.Result) DMRow {
	return DMRow{
		Design: design, GridUm: g, Kind: kind,
		MCTns:   r.Golden.MCTps / 1000,
		MCTImp:  100 * (1 - r.Golden.MCTps/r.Nominal.MCTps),
		LeakUW:  r.Golden.LeakUW,
		LeakImp: 100 * (1 - r.Golden.LeakUW/r.Nominal.LeakUW),
		Domains: r.BiasDomains,
		Runtime: r.Runtime,
	}
}

// dmJob is one independent optimization run of a results table.
type dmJob struct {
	design string
	grid   float64
	qcp    bool
	both   bool
	label  string // engine or mode column
	mode   string // actuator mode: "", "bias" or "joint"
}

// runDMJobs fans the optimization runs across workers and returns their
// results in job order.  QCP runs of the same design and mode form a
// serial chain in the given grid order, each seeded with the previous
// grid's achieved clock period (the warm bracket); QP runs stay
// independent singletons.  Chains are internally serial and mutually
// independent, so the rows stay bit-identical for every worker count —
// only the Runtime column varies.  The chains own the worker budget;
// each run inside one is single-worker.
func (c *Context) runDMJobs(ctx context.Context, jobs []dmJob) ([]DMRow, error) {
	type item struct {
		idx int
		job dmJob
	}
	var chains [][]item
	chainOf := map[string]int{}
	for idx, j := range jobs {
		if !j.qcp {
			chains = append(chains, []item{{idx, j}})
			continue
		}
		key := fmt.Sprintf("%s|%s|%t|%s", j.design, j.label, j.both, j.mode)
		if ci, ok := chainOf[key]; ok {
			chains[ci] = append(chains[ci], item{idx, j})
		} else {
			chainOf[key] = len(chains)
			chains = append(chains, []item{{idx, j}})
		}
	}
	rows := make([]DMRow, len(jobs))
	_, err := par.Map(ctx, len(chains), par.Workers(c.Workers), func(i int) (struct{}, error) {
		seed := 0.0
		for _, it := range chains[i] {
			j := it.job
			r, err := c.runDMActuators(ctx, j.design, j.grid, j.qcp, j.both, seed, j.mode, 1)
			if err != nil {
				return struct{}{}, fmt.Errorf("%s %s %g µm: %w", j.design, j.label, j.grid, err)
			}
			if j.qcp {
				seed = r.PredMCT
			}
			rows[it.idx] = dmRow(j.design, j.grid, j.label, r)
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// TableIVCtx runs QP and QCP poly-layer optimization over every design
// and grid size.  The 24 optimization runs (4 designs × 3 grids ×
// {QP, QCP}) are independent and fan out across workers; rows assemble
// in the paper's fixed order afterwards.
func (c *Context) TableIVCtx(ctx context.Context) (*Table, []DMRow, error) {
	ctx, sp := obs.Start(ctx, "expt/Table IV")
	defer sp.End()
	t := &Table{
		ID:     "Table IV",
		Title:  "dose map optimization on poly layer (Lgate modulation), δ=2, range ±5%",
		Header: []string{"Design", "grid (µm)", "engine", "MCT (ns)", "imp. (%)", "Leakage (µW)", "imp. (%)", "runtime"},
	}
	presets := gen.Presets()
	var jobs []dmJob
	for _, p := range presets {
		for _, g := range gridsFor(p.Name, c.Scale) {
			jobs = append(jobs,
				dmJob{design: p.Name, grid: g, qcp: false, label: "QP"},
				dmJob{design: p.Name, grid: g, qcp: true, label: "QCP"})
		}
	}
	rows, err := c.runDMJobs(ctx, jobs)
	if err != nil {
		return nil, nil, err
	}
	ji := 0
	for _, p := range presets {
		golden, err := c.GoldenCtx(ctx, p.Name)
		if err != nil {
			return nil, nil, err
		}
		t.Rows = append(t.Rows, []string{p.Name, "-", "Nom Lgate",
			f3(golden.MCT / 1000), "-", f1(power.Total(golden.In.Masters, nil, nil, nil)), "-", "-"})
		for range gridsFor(p.Name, c.Scale) {
			for k := 0; k < 2; k++ {
				row := rows[ji]
				ji++
				t.Rows = append(t.Rows, []string{
					row.Design, f1(row.GridUm), row.Kind, f3(row.MCTns), f2(row.MCTImp),
					f1(row.LeakUW), f2(row.LeakImp), row.Runtime.Round(time.Millisecond).String(),
				})
			}
		}
	}
	return t, rows, nil
}

// --- Tables V-VI: both layers ---------------------------------------------

// tableBoth compares Lgate-only against Lgate+Wgate modulation on the
// 65 nm designs (QCP for Table V, QP for Table VI).
func (c *Context) tableBoth(ctx context.Context, id string, qcp bool) (*Table, []DMRow, error) {
	ctx, sp := obs.Start(ctx, "expt/"+id)
	defer sp.End()
	title := "QCP for improved timing"
	if !qcp {
		title = "QP for improved leakage"
	}
	t := &Table{
		ID:     id,
		Title:  title + " on poly and active layers (Lgate and Wgate modulation), 65 nm designs",
		Header: []string{"Design", "grid (µm)", "mode", "MCT (ns)", "imp. (%)", "Leakage (µW)", "imp. (%)"},
		Notes:  "gate-width modulation is a weak knob (±10 nm on ≥200 nm transistors), so 'Both' edges out 'Lgate' only slightly (Section V)",
	}
	var jobs []dmJob
	for _, name := range []string{"AES-65", "JPEG-65"} {
		for _, g := range gridsFor(name, c.Scale) {
			jobs = append(jobs,
				dmJob{design: name, grid: g, qcp: qcp, both: false, label: "Lgate"},
				dmJob{design: name, grid: g, qcp: qcp, both: true, label: "Both"})
		}
	}
	rows, err := c.runDMJobs(ctx, jobs)
	if err != nil {
		return nil, nil, err
	}
	for _, row := range rows {
		t.Rows = append(t.Rows, []string{
			row.Design, f1(row.GridUm), row.Kind, f3(row.MCTns), f2(row.MCTImp), f1(row.LeakUW), f2(row.LeakImp),
		})
	}
	return t, rows, nil
}

// TableVCtx is the QCP (timing) comparison on both layers.
func (c *Context) TableVCtx(ctx context.Context) (*Table, []DMRow, error) {
	return c.tableBoth(ctx, "Table V", true)
}

// TableVICtx is the QP (leakage) comparison on both layers.
func (c *Context) TableVICtx(ctx context.Context) (*Table, []DMRow, error) {
	return c.tableBoth(ctx, "Table VI", false)
}

// --- Table X: actuator ablation -------------------------------------------

// TableXCtx runs the actuator ablation: dose-only vs body-bias-only vs
// the joint co-optimization on every design, QP at τ = 0.99·nominal
// MCT.  The 12 runs (4 designs × 3 actuator modes) are independent QP
// solves at the same τ, so the leakage columns are directly comparable
// per design; the joint row must come in at or below both
// single-actuator rows (a superset feasible region).
func (c *Context) TableXCtx(ctx context.Context) (*Table, []DMRow, error) {
	ctx, sp := obs.Start(ctx, "expt/Table X")
	defer sp.End()
	t := &Table{
		ID:    "Table X",
		Title: "actuator ablation: dose-only vs body-bias vs joint (QP at τ = 0.99·nominal MCT, G=5 µm, bias pitch 20 µm)",
		Header: []string{"Design", "actuators", "MCT (ns)", "imp. (%)",
			"Leakage (µW)", "imp. (%)", "bias domains", "runtime"},
		Notes: "joint optimizes over the union of both knob sets, so its leakage is ≤ min(dose, bias) at equal τ",
	}
	modes := []struct{ mode, label string }{
		{"", "dose"}, {"bias", "bias"}, {"joint", "dose+bias"},
	}
	presets := gen.Presets()
	var jobs []dmJob
	for _, p := range presets {
		for _, m := range modes {
			jobs = append(jobs, dmJob{design: p.Name, grid: 5, qcp: false, label: m.label, mode: m.mode})
		}
	}
	rows, err := c.runDMJobs(ctx, jobs)
	if err != nil {
		return nil, nil, err
	}
	ji := 0
	for _, p := range presets {
		golden, err := c.GoldenCtx(ctx, p.Name)
		if err != nil {
			return nil, nil, err
		}
		t.Rows = append(t.Rows, []string{p.Name, "nominal",
			f3(golden.MCT / 1000), "-", f1(power.Total(golden.In.Masters, nil, nil, nil)), "-", "-", "-"})
		for range modes {
			row := rows[ji]
			ji++
			dom := "-"
			if row.Domains > 0 {
				dom = fmt.Sprintf("%d", row.Domains)
			}
			t.Rows = append(t.Rows, []string{
				row.Design, row.Kind, f3(row.MCTns), f2(row.MCTImp),
				f1(row.LeakUW), f2(row.LeakImp), dom, row.Runtime.Round(time.Millisecond).String(),
			})
		}
	}
	return t, rows, nil
}

// --- Table VII: criticality profile ---------------------------------------

// CriticalityCtx returns the fraction of timing endpoints with arrival
// in the given fraction bands of the MCT.
func (c *Context) CriticalityCtx(ctx context.Context, design string) (f95, f90, f80 float64, err error) {
	r, err := c.GoldenCtx(ctx, design)
	if err != nil {
		return 0, 0, 0, err
	}
	var n, c95, c90, c80 int
	for id := range r.In.Circ.Gates {
		a := r.AEnd[id]
		if math.IsNaN(a) {
			continue
		}
		n++
		if a >= 0.95*r.MCT {
			c95++
		}
		if a >= 0.90*r.MCT {
			c90++
		}
		if a >= 0.80*r.MCT {
			c80++
		}
	}
	if n == 0 {
		return 0, 0, 0, fmt.Errorf("expt: design %s has no endpoints", design)
	}
	fn := float64(n)
	return float64(c95) / fn, float64(c90) / fn, float64(c80) / fn, nil
}

// TableVIICtx reports the percentage of critical timing paths
// (endpoints) within delay bands of the MCT; the per-design analyses
// fan out across workers.
func (c *Context) TableVIICtx(ctx context.Context) (*Table, error) {
	ctx, sp := obs.Start(ctx, "expt/Table VII")
	defer sp.End()
	t := &Table{
		ID:     "Table VII",
		Title:  "percentage of critical timing endpoints near the MCT",
		Header: []string{"Design", "95-100% MCT (%)", "90-100% MCT (%)", "80-100% MCT (%)"},
		Notes:  "the 65 nm testcases carry a near-critical 'slack wall' that limits DMopt headroom; the 90 nm testcases do not (Section V)",
	}
	presets := gen.Presets()
	rows, err := par.Map(ctx, len(presets), par.Workers(c.Workers), func(i int) ([]string, error) {
		f95, f90, f80, err := c.CriticalityCtx(ctx, presets[i].Name)
		if err != nil {
			return nil, err
		}
		return []string{presets[i].Name, pct(f95), pct(f90), pct(f80)}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// --- Table VIII + Fig. 10: dosePl and slack profiles -----------------------

// restorePlacement snapshots a placement and returns a restore
// function: dosePl mutates cell positions, and the harness caches
// designs across experiments.
func restorePlacement(pl *place.Placement) func() {
	x := append([]float64(nil), pl.X...)
	y := append([]float64(nil), pl.Y...)
	w := append([]float64(nil), pl.Width...)
	return func() {
		copy(pl.X, x)
		copy(pl.Y, y)
		copy(pl.Width, w)
	}
}

// TableVIIICtx runs QCP followed by the cell-swapping placement rounds.
// It mutates cached placements (restoring them afterwards) and
// therefore serializes with Fig10ProfilesCtx on the harness placement
// lock.
func (c *Context) TableVIIICtx(ctx context.Context) (*Table, error) {
	ctx, sp := obs.Start(ctx, "expt/Table VIII")
	defer sp.End()
	c.plMu.Lock()
	defer c.plMu.Unlock()
	t := &Table{
		ID:     "Table VIII",
		Title:  "QCP for improved timing followed by incremental placement (dosePl)",
		Header: []string{"Testcase", "stage", "MCT (ns)", "Leakage (µW)"},
	}
	for _, name := range []string{"AES-65", "JPEG-65"} {
		spec := c.spec(name)
		spec.GridUm = gridsFor(name, c.Scale)[0]
		// Compile while the placement is pristine: the artifact snapshots
		// the gate→grid map, and dosePl moves cells afterwards.
		art, opt, err := c.prepare(ctx, spec)
		if err != nil {
			return nil, err
		}
		dopt := core.DefaultDosePlOptions()
		dopt.K = c.K
		restore := restorePlacement(art.Golden.In.Pl)
		out, err := core.SolveFlow(ctx, core.FlowRequest{Compiled: art.Compiled, Config: core.FlowConfig{
			Opt: opt, Mode: core.ModeQCPTiming, RunDosePl: true, DosePl: dopt}})
		restore()
		if err != nil {
			return nil, err
		}
		dm, dp := out.DM, out.DosePl
		t.Rows = append(t.Rows,
			[]string{name, "Nom Lgate", f3(dm.Nominal.MCTps / 1000), f1(dm.Nominal.LeakUW)},
			[]string{name, "QCP", f3(dm.Golden.MCTps / 1000), f1(dm.Golden.LeakUW)},
			[]string{name, "dosePl", f3(dp.After.MCTps / 1000), f1(dp.After.LeakUW)},
		)
	}
	return t, nil
}

// Fig10ProfilesCtx returns the four slack profiles of Fig. 10 for a
// design: original, after DMopt (QCP), after dosePl, and the "Bias"
// reference where every gate on the top-K paths gets maximum dose.  It
// mutates the cached placement (restoring it afterwards) and therefore
// serializes with TableVIIICtx on the harness placement lock.
func (c *Context) Fig10ProfilesCtx(ctx context.Context, design string) (map[string][]float64, error) {
	ctx, sp := obs.Start(ctx, "expt/Fig. 10")
	defer sp.End()
	c.plMu.Lock()
	defer c.plMu.Unlock()
	spec := c.spec(design)
	spec.GridUm = gridsFor(design, c.Scale)[0]
	// Compile while the placement is pristine (dosePl moves cells below).
	art, opt, err := c.prepare(ctx, spec)
	if err != nil {
		return nil, err
	}
	golden, comp := art.Golden, art.Compiled
	defer restorePlacement(golden.In.Pl)()
	k := c.K
	maxStates := 60 * k

	period := golden.MCT
	out := map[string][]float64{}
	out["Orig"] = core.PathSlackProfile(golden, k, maxStates, period)

	dm, err := core.SolveQCP(ctx, core.QCPRequest{Compiled: comp, Opt: opt})
	if err != nil {
		return nil, err
	}
	in := golden.In
	dl, dw := dm.Layers.PerGate(in.Circ, in.Pl, opt.Snap)
	dmRes, err := sta.AnalyzeCtx(ctx, in, sta.DefaultConfig(), &sta.Perturb{DL: dl, DW: dw})
	if err != nil {
		return nil, err
	}
	out["DMopt"] = core.PathSlackProfile(dmRes, k, maxStates, period)

	dopt := core.DefaultDosePlOptions()
	dopt.K = k
	if _, err := core.DosePlCtx(ctx, golden, dm.Layers, opt, dopt); err != nil {
		return nil, err
	}
	dl2, dw2 := dm.Layers.PerGate(in.Circ, in.Pl, opt.Snap)
	plRes, err := sta.AnalyzeCtx(ctx, in, sta.DefaultConfig(), &sta.Perturb{DL: dl2, DW: dw2})
	if err != nil {
		return nil, err
	}
	out["dosePl"] = core.PathSlackProfile(plRes, k, maxStates, period)

	bias := core.BiasPerturb(golden, k, maxStates, opt.DoseHi)
	biasRes, err := sta.AnalyzeCtx(ctx, in, sta.DefaultConfig(), bias)
	if err != nil {
		return nil, err
	}
	out["Bias"] = core.PathSlackProfile(biasRes, k, maxStates, period)
	return out, nil
}

// Fig10Ctx renders the slack profiles as a downsampled table.
func (c *Context) Fig10Ctx(ctx context.Context, design string, points int) (*Table, error) {
	profiles, err := c.Fig10ProfilesCtx(ctx, design)
	if err != nil {
		return nil, err
	}
	if points <= 1 {
		points = 20
	}
	order := []string{"Orig", "DMopt", "dosePl", "Bias"}
	t := &Table{
		ID:     "Fig. 10",
		Title:  fmt.Sprintf("slack profiles of %s at the nominal clock period (ns)", design),
		Header: append([]string{"path #"}, order...),
		Notes:  "slacks sorted ascending; Bias shows the headroom left by the smoothness- and leakage-constrained DMopt",
	}
	n := len(profiles["Orig"])
	if n == 0 {
		return nil, fmt.Errorf("expt: empty slack profile")
	}
	for i := 0; i < points; i++ {
		idx := i * (n - 1) / (points - 1)
		row := []string{fmt.Sprint(idx)}
		for _, k := range order {
			p := profiles[k]
			j := idx
			if j >= len(p) {
				j = len(p) - 1
			}
			row = append(row, f3(p[j]/1000))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// --- Extension: full-wafer consensus co-optimization (Table IX) ---------

// WaferGeometry is the production step-and-scan layout with the radial
// fingerprint used throughout the wafer experiments: 26×33 mm fields on
// a 300 mm wafer (88 fields) with a −2/+4 nm center-to-edge CD bias.
func WaferGeometry() core.WaferOptions {
	return core.WaferOptions{
		Fingerprint: dosemap.RadialCD{Center: -2, Edge: 4, Power: 2},
	}
}

// WaferRunCtx runs the full three-stage wafer co-optimization of one
// design: uniform dose, uncoupled per-field QCPs, and the
// consensus-ADMM coupled solve at the common clock-period target.
func (c *Context) WaferRunCtx(ctx context.Context, design string, gridUm float64, wopt core.WaferOptions) (*core.WaferResult, error) {
	spec := c.spec(design)
	spec.GridUm = gridUm
	art, opt, err := c.prepare(ctx, spec)
	if err != nil {
		return nil, err
	}
	return core.SolveWafer(ctx, core.WaferRequest{Compiled: art.Compiled, Opt: opt, Wafer: wopt})
}

// WaferTable renders a wafer run as the Table IX row data: one row per
// exposure field with the three stages' golden signoff, plus the
// per-stage across-wafer spread in the notes.
func WaferTable(design string, r *core.WaferResult) *Table {
	t := &Table{
		ID: "Table IX",
		Title: fmt.Sprintf("full-wafer consensus co-optimization of %s (%d fields, %d consensus groups)",
			design, len(r.Fields), r.Groups),
		Header: []string{"field", "bias (nm)", "uniform MCT (ns)", "uncoupled MCT (ns)",
			"coupled MCT (ns)", "coupled leak (µW)", "leak vs nom (%)"},
		Notes: fmt.Sprintf("τ̄ = %.1f ps; MCT spread %% uniform/uncoupled/coupled = %.3f/%.3f/%.4f; %d outer iters, %d field solves",
			r.TauPs, r.UniformSpreadPct, r.UncoupledSpreadPct, r.CoupledSpreadPct,
			r.OuterIters, r.FieldSolves),
	}
	for i := range r.Fields {
		f := &r.Fields[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("(%d,%d)", f.Col, f.Row),
			f2(f.CDBiasNm),
			f3(f.Uniform.MCTps / 1000),
			f3(f.Uncoupled.MCTps / 1000),
			f3(f.Coupled.MCTps / 1000),
			f1(f.Coupled.LeakUW),
			f2(100 * (f.Coupled.LeakUW/r.NomLeakUW - 1)),
		})
	}
	return t
}

// TableIXCtx reproduces the wafer-scale extension experiment: the
// across-wafer MCT spread must shrink strictly from the uniform-dose
// baseline to the uncoupled per-field solves to the consensus-coupled
// solve, with every field's leakage at the shared budget.  The 10 µm
// grid keeps the 64-field run affordable; the equalization story is
// grid-independent.
func (c *Context) TableIXCtx(ctx context.Context, design string) (*Table, error) {
	r, err := c.WaferRunCtx(ctx, design, 10, WaferGeometry())
	if err != nil {
		return nil, err
	}
	return WaferTable(design, r), nil
}
