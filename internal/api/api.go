// Package api defines the versioned request/response contract of the
// DMopt pipeline: a JobSpec describes one optimization job (design,
// formulation, Options/ξ/τ) and a JobResult reports its signoff
// numbers, both under the "dmopt-job/v1" schema.
//
// The contract is transport-neutral: cmd/dmopt builds a JobSpec from
// flags and runs it in-process, dmopt-serve accepts the same document
// over HTTP, and the expt harness describes each table run as one.
// All three build the design → golden → model → compiled chain through
// Prepare and one build-once Cache (none for cmd/dmopt, a byte budget
// for the server, unbounded for the harness), and cmd/dmopt and the
// server solve through Execute, which runs the QP or QCP, dosePl and
// wafer stages.  So the transports cannot drift and their results are
// bit-identical by construction.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/dosemap"
	"repro/internal/gen"
)

// Schema identifies the request/response document layout.  Bump the
// suffix on any incompatible change so clients can dispatch.
const Schema = "dmopt-job/v1"

// Actuator selections (JobSpec.Actuators).
const (
	// ActuatorsDose is the dose-only pipeline; "" normalizes to it.
	ActuatorsDose = "dose"
	// ActuatorsBias optimizes per-domain body bias only.
	ActuatorsBias = "bias"
	// ActuatorsJoint co-optimizes dose and body bias; "joint" is an
	// accepted alias that normalizes to it.
	ActuatorsJoint = "dose+bias"

	// DefaultBiasGridUm is the default bias-domain tiling pitch in µm.
	DefaultBiasGridUm = 20
)

// Job modes.
const (
	// ModeQP minimizes Δleakage under a clock-period bound (default).
	ModeQP = "qp"
	// ModeQCP minimizes the clock period under a leakage budget.
	ModeQCP = "qcp"
	// ModeWafer runs the full-wafer consensus co-optimization: per-field
	// sub-problems under an across-wafer CD fingerprint, coupled by
	// shared cross-slit dose profiles.
	ModeWafer = "wafer"
)

// WaferSpec parameterizes a wafer-mode job: the step-and-scan layout,
// the radial CD fingerprint (nm at wafer center and edge; zero values
// describe a flat wafer) and the consensus outer loop.  Zero-valued
// knobs select the production defaults (300 mm wafer, 26×33 mm fields,
// 3 mm edge exclusion, 8 consensus rounds per column group); MaxOuter
// may not exceed MaxWaferOuter.
type WaferSpec struct {
	DiameterMM float64 `json:"diameter_mm,omitempty"`
	FieldWmm   float64 `json:"field_w_mm,omitempty"`
	FieldHmm   float64 `json:"field_h_mm,omitempty"`
	EdgeMM     float64 `json:"edge_mm,omitempty"`
	CenterNm   float64 `json:"center_nm,omitempty"`
	EdgeNm     float64 `json:"edge_nm,omitempty"`
	Power      float64 `json:"power,omitempty"`
	MaxOuter   int     `json:"max_outer,omitempty"`
}

// MaxWaferOuter bounds WaferSpec.MaxOuter.  Each consensus round is one
// QP solve per field of a column group.  A group that meets the
// consensus tolerance does so within a few rounds, and one that stalls
// runs to the cap, so a cap far above the default 8 only lets one
// request hold a worker longer.
const MaxWaferOuter = 64

// Inline-preset bounds.  Generation time and memory grow with a
// preset's cell, depth and port counts, so Validate refuses a preset
// past them before any build.  Every Table I preset fits at scale 1
// (at most 98,555 cells, depth 40 and 96 ports per side).
const (
	MaxPresetCells = 1 << 17
	MaxPresetDepth = 256
	MaxPresetPorts = 4096
)

// JobSpec describes one optimization job.  Zero-valued knobs select the
// paper's defaults (see core.DefaultOptions); Normalized materializes
// them.  The design is either a Table I preset referenced by name or a
// full inline gen.Preset — a serialized design spec that generates a
// deterministic netlist, placement and library binding.
type JobSpec struct {
	// Schema must be "" (assumed current) or Schema.
	Schema string `json:"schema,omitempty"`

	// Design names a Table I preset (AES-65, JPEG-65, AES-90, JPEG-90).
	Design string `json:"design,omitempty"`
	// Preset is an inline design spec, mutually exclusive with Design.
	Preset *gen.Preset `json:"preset,omitempty"`
	// Scale shrinks the design by a factor in (0, 1]; 0 selects 1.
	Scale float64 `json:"scale,omitempty"`

	// Mode is "qp" (default) or "qcp".
	Mode string `json:"mode,omitempty"`
	// TauPs is the QP clock-period bound in ps; 0 means the design's
	// nominal MCT ("improve leakage without degrading timing").
	TauPs float64 `json:"tau_ps,omitempty"`
	// XiNW is the QCP Δleakage budget ξ in nW.
	XiNW float64 `json:"xi_nw,omitempty"`

	// GridUm is the dose-map grid size G in µm (default 5).
	GridUm float64 `json:"grid_um,omitempty"`
	// Delta is the dose smoothness bound δ in percent (default 2).
	Delta float64 `json:"delta,omitempty"`
	// DoseLo, DoseHi are the equipment correction range in percent
	// (default ±5; both zero selects the default).
	DoseLo float64 `json:"dose_lo,omitempty"`
	DoseHi float64 `json:"dose_hi,omitempty"`
	// BothLayers modulates poly and active layers simultaneously.
	BothLayers bool `json:"both_layers,omitempty"`
	// NoSnap disables the timing-safe rounding of grid doses to the
	// characterized library steps before golden signoff.
	NoSnap bool `json:"no_snap,omitempty"`
	// DosePl appends the cell-swapping placement rounds after DMopt.
	DosePl bool `json:"dosepl,omitempty"`

	// Actuators selects the optimization knobs: "" or "dose" (dose-map
	// only — the historical pipeline, bit-identical to pre-actuator
	// specs), "bias" (per-domain body bias only), "dose+bias" (or the
	// alias "joint") for the co-optimization.
	Actuators string `json:"actuators,omitempty"`
	// BiasGridUm is the bias-domain tiling pitch in µm (default 20);
	// only valid with a bias-containing actuator selection.
	BiasGridUm float64 `json:"bias_grid_um,omitempty"`
	// BiasLoV, BiasHiV bound the per-domain body-bias voltage in V
	// (forward positive; both zero selects the default [-0.2, +0.1]).
	BiasLoV float64 `json:"bias_lo_v,omitempty"`
	BiasHiV float64 `json:"bias_hi_v,omitempty"`

	// Wafer parameterizes a wafer-mode job; only valid with mode "wafer"
	// (and a nil Wafer there selects the production layout, flat).
	Wafer *WaferSpec `json:"wafer,omitempty"`

	// Workers bounds the job's parallel fan-out; 0 = GOMAXPROCS.
	// Results are bit-identical for every worker count.
	Workers int `json:"workers,omitempty"`
	// LinSys is legacy input: the ADMM x-step has one linear-system
	// backend, the solver's LDLᵀ factor.  "", "auto" and "ldlt" are
	// accepted and normalize to "auto", which canonical specs keep so
	// their bytes (and the dedup keys hashed from them) stay stable;
	// any other value is rejected.
	LinSys string `json:"linsys,omitempty"`
}

// linSysAuto is the normalized value of the legacy LinSys field.
const linSysAuto = "auto"

// Normalized returns a copy with every defaulted knob materialized, so
// two specs describe the same job iff their normalized forms are equal.
func (s JobSpec) Normalized() JobSpec {
	def := core.DefaultOptions()
	s.Schema = Schema
	if s.Scale <= 0 || s.Scale > 1 {
		s.Scale = 1
	}
	if s.Mode == "" {
		s.Mode = ModeQP
	}
	s.Mode = strings.ToLower(s.Mode)
	if s.GridUm == 0 {
		s.GridUm = def.G
	}
	if s.Delta == 0 {
		s.Delta = def.Delta
	}
	if s.DoseLo == 0 && s.DoseHi == 0 {
		s.DoseLo, s.DoseHi = def.DoseLo, def.DoseHi
	}
	if s.LinSys == "" || s.LinSys == "ldlt" {
		s.LinSys = linSysAuto
	}
	if s.Workers < 0 {
		s.Workers = 0
	}
	// Actuator normalization: the dose-only default stays "" with all
	// bias knobs zero, so legacy canonical spec strings (and the dedup
	// keys derived from them) are byte-identical to pre-actuator builds.
	s.Actuators = strings.ToLower(s.Actuators)
	if s.Actuators == ActuatorsDose {
		s.Actuators = ""
	}
	if s.Actuators == "joint" {
		s.Actuators = ActuatorsJoint
	}
	if s.biasOn() {
		if s.BiasGridUm == 0 {
			s.BiasGridUm = DefaultBiasGridUm
		}
		if s.BiasLoV == 0 && s.BiasHiV == 0 {
			s.BiasLoV, s.BiasHiV = core.DefaultBiasLo, core.DefaultBiasHi
		}
	}
	if s.Mode == ModeWafer {
		w := WaferSpec{}
		if s.Wafer != nil {
			w = *s.Wafer
		}
		if w.DiameterMM <= 0 {
			w.DiameterMM = 300
		}
		if w.FieldWmm <= 0 {
			w.FieldWmm = 26
		}
		if w.FieldHmm <= 0 {
			w.FieldHmm = 33
		}
		if w.EdgeMM == 0 {
			w.EdgeMM = 3
		}
		if w.Power <= 0 {
			w.Power = 2
		}
		if w.MaxOuter <= 0 {
			w.MaxOuter = 8
		}
		s.Wafer = &w
	}
	return s
}

// Validate checks a normalized or raw spec; the returned error is safe
// to surface verbatim to API clients.
func (s JobSpec) Validate() error {
	if s.Schema != "" && s.Schema != Schema {
		return fmt.Errorf("api: unsupported schema %q (want %q)", s.Schema, Schema)
	}
	if err := checkFinite("", s); err != nil {
		return err
	}
	if s.Wafer != nil {
		if err := checkFinite("wafer.", *s.Wafer); err != nil {
			return err
		}
	}
	if (s.Design == "") == (s.Preset == nil) {
		return fmt.Errorf("api: exactly one of design or preset must be set")
	}
	if s.Design != "" {
		if _, err := gen.PresetByName(s.Design); err != nil {
			return fmt.Errorf("api: %w", err)
		}
	}
	if s.Preset != nil && s.Preset.Name == "" {
		return fmt.Errorf("api: inline preset needs a name")
	}
	if s.Scale < 0 || s.Scale > 1 {
		return fmt.Errorf("api: scale %g outside (0, 1]", s.Scale)
	}
	mode := strings.ToLower(s.Mode)
	switch mode {
	case "", ModeQP, ModeQCP, ModeWafer:
	default:
		return fmt.Errorf("api: unknown mode %q (want %q, %q or %q)", s.Mode, ModeQP, ModeQCP, ModeWafer)
	}
	if s.Wafer != nil && mode != ModeWafer {
		return fmt.Errorf("api: wafer parameters are only valid with mode %q", ModeWafer)
	}
	if mode == ModeWafer {
		if s.BothLayers || s.DosePl {
			return fmt.Errorf("api: wafer mode supports poly-only jobs without dosepl")
		}
		if w := s.Wafer; w != nil {
			if w.DiameterMM < 0 || w.FieldWmm < 0 || w.FieldHmm < 0 || w.EdgeMM < 0 {
				return fmt.Errorf("api: negative wafer geometry")
			}
			if w.Power < 0 {
				return fmt.Errorf("api: negative fingerprint power %g", w.Power)
			}
			if w.MaxOuter < 0 || w.MaxOuter > MaxWaferOuter {
				return fmt.Errorf("api: max_outer %d outside [0, %d]", w.MaxOuter, MaxWaferOuter)
			}
		}
	}
	switch strings.ToLower(s.Actuators) {
	case "", ActuatorsDose, ActuatorsBias, ActuatorsJoint, "joint":
	default:
		return fmt.Errorf("api: unknown actuators %q (want %q, %q or %q)",
			s.Actuators, ActuatorsDose, ActuatorsBias, ActuatorsJoint)
	}
	if s.biasOn() {
		if mode == ModeWafer {
			return fmt.Errorf("api: wafer mode supports the dose actuator only")
		}
		if s.DosePl {
			return fmt.Errorf("api: dosepl rounds require the dose-only actuator selection")
		}
		if s.BiasGridUm < 0 {
			return fmt.Errorf("api: negative bias grid bias_grid_um %g", s.BiasGridUm)
		}
		if s.BiasLoV > s.BiasHiV {
			return fmt.Errorf("api: bias range [%g, %g] is empty", s.BiasLoV, s.BiasHiV)
		}
	} else if s.BiasGridUm != 0 || s.BiasLoV != 0 || s.BiasHiV != 0 {
		return fmt.Errorf("api: bias knobs are only valid with a bias-containing actuators selection")
	}
	if s.TauPs < 0 {
		return fmt.Errorf("api: negative clock-period bound tau_ps %g", s.TauPs)
	}
	if s.GridUm < 0 {
		return fmt.Errorf("api: negative grid size grid_um %g", s.GridUm)
	}
	// The design must fit the preset bounds and the dose grid
	// dosemap.MaxGridCells on the spec's die, refused here before any
	// design is generated.
	p, err := s.GenPreset()
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if p.Cells > MaxPresetCells || p.Depth > MaxPresetDepth || p.PIs > MaxPresetPorts || p.POs > MaxPresetPorts {
		return fmt.Errorf("api: preset %q has %d cells, depth %d and %d/%d ports, above the bounds of %d cells, depth %d and %d ports",
			p.Name, p.Cells, p.Depth, p.PIs, p.POs, MaxPresetCells, MaxPresetDepth, MaxPresetPorts)
	}
	if _, err := dosemap.NewGrid(p.ChipW, p.ChipH, s.Normalized().GridUm); err != nil {
		return fmt.Errorf("api: grid_um: %w", err)
	}
	if s.Delta < 0 {
		return fmt.Errorf("api: negative smoothness bound delta %g", s.Delta)
	}
	if s.DoseLo > s.DoseHi {
		return fmt.Errorf("api: dose range [%g, %g] is empty", s.DoseLo, s.DoseHi)
	}
	switch s.LinSys {
	case "", linSysAuto, "ldlt":
	default:
		return fmt.Errorf("api: unsupported linsys %q: the only linear-system backend is the solver's LDLᵀ factor (want auto or ldlt)", s.LinSys)
	}
	return nil
}

// checkFinite refuses a NaN or infinite float field of v, a JobSpec or
// WaferSpec, naming the field by its JSON key.  JSON cannot carry such
// numbers but CLI flags can, and NaN passes every range check.
func checkFinite(prefix string, v any) error {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Float64 {
			continue
		}
		if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
			key, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
			return fmt.Errorf("api: %s%s is %g, want a finite number", prefix, key, x)
		}
	}
	return nil
}

// biasOn reports whether the spec's actuator selection includes body
// bias (accepting both raw and normalized spellings).
func (s JobSpec) biasOn() bool {
	switch strings.ToLower(s.Actuators) {
	case ActuatorsBias, ActuatorsJoint, "joint":
		return true
	}
	return false
}

// GenPreset resolves the (scaled) design preset the spec describes.
func (s JobSpec) GenPreset() (gen.Preset, error) {
	s = s.Normalized()
	var p gen.Preset
	if s.Preset != nil {
		p = *s.Preset
	} else {
		var err error
		if p, err = gen.PresetByName(s.Design); err != nil {
			return gen.Preset{}, err
		}
	}
	if s.Scale < 1 {
		p = p.Scaled(s.Scale)
	}
	return p, nil
}

// DesignKey is a canonical identity for the spec's generated design —
// the cache key of the design/golden stages.  Inline presets key on
// their full field set (Preset is a flat scalar struct).
func (s JobSpec) DesignKey() string {
	s = s.Normalized()
	if s.Preset != nil {
		return fmt.Sprintf("inline/%+v@%g", *s.Preset, s.Scale)
	}
	return fmt.Sprintf("%s@%g", s.Design, s.Scale)
}

// Options maps the spec onto the core run options.
func (s JobSpec) Options() (core.Options, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return core.Options{}, err
	}
	opt := core.DefaultOptions()
	opt.G = s.GridUm
	opt.Delta = s.Delta
	opt.DoseLo, opt.DoseHi = s.DoseLo, s.DoseHi
	opt.BothLayers = s.BothLayers
	opt.XiNW = s.XiNW
	opt.Snap = !s.NoSnap
	opt.Workers = s.Workers
	if s.biasOn() {
		opt.DoseOff = strings.ToLower(s.Actuators) == ActuatorsBias
		opt.BiasGridUm = s.BiasGridUm
		opt.BiasLo, opt.BiasHi = s.BiasLoV, s.BiasHiV
	}
	return opt, nil
}

// WaferOptions maps a wafer-mode spec onto the core wafer options.
func (s JobSpec) WaferOptions() (core.WaferOptions, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return core.WaferOptions{}, err
	}
	if s.Mode != ModeWafer || s.Wafer == nil {
		return core.WaferOptions{}, fmt.Errorf("api: spec mode %q is not a wafer job", s.Mode)
	}
	w := s.Wafer
	return core.WaferOptions{
		DiameterMM: w.DiameterMM,
		FieldWmm:   w.FieldWmm,
		FieldHmm:   w.FieldHmm,
		EdgeMM:     w.EdgeMM,
		Fingerprint: dosemap.RadialCD{
			Center: w.CenterNm, Edge: w.EdgeNm, Power: w.Power,
		},
		MaxOuter: w.MaxOuter,
	}, nil
}

// MarshalCanonical renders the normalized spec as compact JSON — the
// job-identity string the server logs and deduplicates on.
func (s JobSpec) MarshalCanonical() string {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		return s.DesignKey()
	}
	return string(b)
}

// DoseSummary reports the optimized dose map's shape.
type DoseSummary struct {
	MinPct              float64 `json:"min_pct"`
	MaxPct              float64 `json:"max_pct"`
	MeanPct             float64 `json:"mean_pct"`
	RMSPct              float64 `json:"rms_pct"`
	MaxNeighborDeltaPct float64 `json:"max_neighbor_delta_pct"`
}

// BiasSummary reports the optimized per-domain body-bias voltages
// (present only when the job's actuator selection includes bias).
type BiasSummary struct {
	Domains int     `json:"domains"`
	MinV    float64 `json:"min_v"`
	MaxV    float64 `json:"max_v"`
	MeanV   float64 `json:"mean_v"`
}

// DosePlSummary reports the optional placement rounds.
type DosePlSummary struct {
	MCTPs         float64 `json:"mct_ps"`
	LeakUW        float64 `json:"leak_uw"`
	SwapsAccepted int     `json:"swaps_accepted"`
	SwapsTried    int     `json:"swaps_tried"`
	Rounds        int     `json:"rounds"`
}

// WaferFieldResult is one exposure field's coupled-stage signoff, with
// the two baselines for comparison.
type WaferFieldResult struct {
	Col            int     `json:"col"`
	Row            int     `json:"row"`
	BiasNm         float64 `json:"bias_nm"`
	UniformMCTPs   float64 `json:"uniform_mct_ps"`
	UncoupledMCTPs float64 `json:"uncoupled_mct_ps"`
	MCTPs          float64 `json:"mct_ps"`
	LeakUW         float64 `json:"leak_uw"`
}

// WaferSummary reports a wafer-mode job: the across-wafer spread of the
// three stages, the consensus loop's effort, and the per-field signoff.
type WaferSummary struct {
	Fields             int                `json:"fields"`
	Groups             int                `json:"groups"`
	TauPs              float64            `json:"tau_ps"`
	UniformSpreadPct   float64            `json:"uniform_spread_pct"`
	UncoupledSpreadPct float64            `json:"uncoupled_spread_pct"`
	CoupledSpreadPct   float64            `json:"coupled_spread_pct"`
	OuterIters         int                `json:"outer_iters"`
	FieldSolves        int                `json:"field_solves"`
	FinalResidualPct   float64            `json:"final_residual_pct"`
	PerField           []WaferFieldResult `json:"per_field"`
}

// JobResult is the versioned outcome document of one job.
type JobResult struct {
	Schema string `json:"schema"`
	Design string `json:"design"`
	Mode   string `json:"mode"`

	// Nominal and final golden-signoff snapshots.
	NominalMCTPs  float64 `json:"nominal_mct_ps"`
	NominalLeakUW float64 `json:"nominal_leak_uw"`
	MCTPs         float64 `json:"mct_ps"`
	LeakUW        float64 `json:"leak_uw"`
	// Improvements in percent, positive is better.
	MCTImpPct  float64 `json:"mct_imp_pct"`
	LeakImpPct float64 `json:"leak_imp_pct"`

	// Optimizer-model predictions and solve statistics.
	PredMCTPs       float64 `json:"pred_mct_ps"`
	PredDeltaLeakNW float64 `json:"pred_delta_leak_nw"`
	Probes          int     `json:"probes"`
	Rows            int     `json:"rows,omitempty"`
	Cols            int     `json:"cols,omitempty"`
	SolverStatus    string  `json:"solver_status"`

	Dose   DoseSummary    `json:"dose"`
	Bias   *BiasSummary   `json:"bias,omitempty"`
	DosePl *DosePlSummary `json:"dosepl,omitempty"`
	Wafer  *WaferSummary  `json:"wafer,omitempty"`

	// RuntimeNS is the solve wall time (excludes cached stages).
	RuntimeNS int64 `json:"runtime_ns"`
}

// WaferResultOf assembles the versioned result document from a wafer
// outcome.  The top-level signoff reports the wafer's WORST coupled
// field (the wafer ships at its slowest chip); the per-field detail and
// spreads live in the Wafer section.
func WaferResultOf(spec JobSpec, wr *core.WaferResult) *JobResult {
	spec = spec.Normalized()
	worst := 0
	for i := range wr.Fields {
		if wr.Fields[i].Coupled.MCTps > wr.Fields[worst].Coupled.MCTps {
			worst = i
		}
	}
	wf := &wr.Fields[worst]
	st := wf.Dose.Stats()
	sum := &WaferSummary{
		Fields:             len(wr.Fields),
		Groups:             wr.Groups,
		TauPs:              wr.TauPs,
		UniformSpreadPct:   wr.UniformSpreadPct,
		UncoupledSpreadPct: wr.UncoupledSpreadPct,
		CoupledSpreadPct:   wr.CoupledSpreadPct,
		OuterIters:         wr.OuterIters,
		FieldSolves:        wr.FieldSolves,
	}
	if n := len(wr.Residuals); n > 0 {
		sum.FinalResidualPct = wr.Residuals[n-1]
	}
	for i := range wr.Fields {
		f := &wr.Fields[i]
		sum.PerField = append(sum.PerField, WaferFieldResult{
			Col: f.Col, Row: f.Row, BiasNm: f.CDBiasNm,
			UniformMCTPs:   f.Uniform.MCTps,
			UncoupledMCTPs: f.Uncoupled.MCTps,
			MCTPs:          f.Coupled.MCTps,
			LeakUW:         f.Coupled.LeakUW,
		})
	}
	return &JobResult{
		Schema:        Schema,
		Design:        spec.DesignKey(),
		Mode:          spec.Mode,
		NominalMCTPs:  wf.Uniform.MCTps,
		NominalLeakUW: wr.NomLeakUW,
		MCTPs:         wf.Coupled.MCTps,
		LeakUW:        wf.Coupled.LeakUW,
		MCTImpPct:     100 * (1 - wf.Coupled.MCTps/wf.Uniform.MCTps),
		LeakImpPct:    100 * (1 - wf.Coupled.LeakUW/wr.NomLeakUW),
		Probes:        wr.FieldSolves,
		SolverStatus:  "wafer_consensus",
		Dose: DoseSummary{
			MinPct:              st.Min,
			MaxPct:              st.Max,
			MeanPct:             st.Mean,
			RMSPct:              st.RMS,
			MaxNeighborDeltaPct: wf.Dose.MaxNeighborDiff(),
		},
		Wafer:     sum,
		RuntimeNS: int64(wr.Runtime),
	}
}

// ResultOf assembles the versioned result document from the solve
// stages' results: the DMopt result and the dosePl rounds (nil when
// none ran), whose signoff is then the final one.
func ResultOf(spec JobSpec, dm *core.Result, dp *core.DosePlResult) *JobResult {
	spec = spec.Normalized()
	final := dm.Golden
	if dp != nil {
		final = dp.After
	}
	st := dm.Layers.Poly.Stats()
	r := &JobResult{
		Schema:          Schema,
		Design:          spec.DesignKey(),
		Mode:            spec.Mode,
		NominalMCTPs:    dm.Nominal.MCTps,
		NominalLeakUW:   dm.Nominal.LeakUW,
		MCTPs:           final.MCTps,
		LeakUW:          final.LeakUW,
		MCTImpPct:       100 * (1 - final.MCTps/dm.Nominal.MCTps),
		LeakImpPct:      100 * (1 - final.LeakUW/dm.Nominal.LeakUW),
		PredMCTPs:       dm.PredMCT,
		PredDeltaLeakNW: dm.PredDeltaLeakNW,
		Probes:          dm.Probes,
		Rows:            dm.Rows,
		Cols:            dm.Cols,
		SolverStatus:    dm.Status,
		Dose: DoseSummary{
			MinPct:              st.Min,
			MaxPct:              st.Max,
			MeanPct:             st.Mean,
			RMSPct:              st.RMS,
			MaxNeighborDeltaPct: dm.Layers.Poly.MaxNeighborDiff(),
		},
		RuntimeNS: int64(dm.Runtime),
	}
	if n := dm.BiasDomains; n > 0 && len(dm.BiasV) == n {
		bs := &BiasSummary{Domains: n, MinV: dm.BiasV[0], MaxV: dm.BiasV[0]}
		sum := 0.0
		for _, b := range dm.BiasV {
			if b < bs.MinV {
				bs.MinV = b
			}
			if b > bs.MaxV {
				bs.MaxV = b
			}
			sum += b
		}
		bs.MeanV = sum / float64(n)
		r.Bias = bs
	}
	if dp != nil {
		r.DosePl = &DosePlSummary{
			MCTPs:         dp.After.MCTps,
			LeakUW:        dp.After.LeakUW,
			SwapsAccepted: dp.SwapsAccepted,
			SwapsTried:    dp.SwapsTried,
			Rounds:        len(dp.Rounds),
		}
	}
	return r
}
