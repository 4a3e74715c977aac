package expt

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// loadRecordedResults splits results_scale0.15.txt (the recorded
// scale-0.15 harness run EXPERIMENTS.md documents) into sections keyed
// by their title prefix, each a list of non-blank body lines.
func loadRecordedResults(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "results_scale0.15.txt"))
	if err != nil {
		t.Fatalf("recorded results missing: %v", err)
	}
	sections := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimRight(line, " \t")
		if strings.HasPrefix(trimmed, "Fig.") || strings.HasPrefix(trimmed, "Table") {
			if i := strings.Index(trimmed, " —"); i > 0 {
				cur = trimmed[:i]
				continue
			}
		}
		if trimmed == "" {
			cur = ""
			continue
		}
		if cur != "" && !strings.HasPrefix(trimmed, "note:") {
			sections[cur] = append(sections[cur], trimmed)
		}
	}
	return sections
}

// num parses a float field, failing the test on malformed data.
func num(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad numeric field %q: %v", s, err)
	}
	return v
}

// TestRecordedResultsShape re-checks the EXPERIMENTS.md shape criteria
// against the committed results_scale0.15.txt, so a regenerated results
// file that silently loses a qualitative property (who wins, signs,
// monotonicity, the slack wall) fails CI even when every number parses.
func TestRecordedResultsShape(t *testing.T) {
	sec := loadRecordedResults(t)

	// Fig. 2: the dose sensitivity is exactly Ds = -2 nm/%.
	for _, row := range sec["Fig. 2"][1:] {
		f := strings.Fields(row)
		dose, dcd := num(t, f[0]), num(t, f[1])
		if dcd != -2*dose {
			t.Errorf("Fig. 2: ΔCD at dose %v is %v, want %v", dose, dcd, -2*dose)
		}
	}

	// Fig. 3: delay strictly increasing in Lgate.  Fig. 5: leakage
	// strictly decreasing and convex (exponential-like) in Lgate.
	var d3, l5 []float64
	for _, row := range sec["Fig. 3"][1:] {
		d3 = append(d3, num(t, strings.Fields(row)[1]))
	}
	for _, row := range sec["Fig. 5"][1:] {
		l5 = append(l5, num(t, strings.Fields(row)[1]))
	}
	for i := 1; i < len(d3); i++ {
		if d3[i] <= d3[i-1] {
			t.Errorf("Fig. 3: delay not increasing at row %d", i)
		}
	}
	for i := 1; i < len(l5); i++ {
		if l5[i] >= l5[i-1] {
			t.Errorf("Fig. 5: leakage not decreasing at row %d", i)
		}
	}
	for i := 1; i < len(l5)-1; i++ {
		if l5[i-1]-l5[i] <= l5[i]-l5[i+1] {
			t.Errorf("Fig. 5: leakage not convex at row %d", i)
		}
	}

	// Tables II/III: uniform dose monotonically trades timing against
	// leakage — no sweep point may improve both.
	for _, table := range []string{"Table II", "Table III"} {
		rows := sec[table][1:]
		var prevMCT, prevLeak float64
		for i, row := range rows {
			f := strings.Fields(row)
			dose, mct, mctImp := num(t, f[0]), num(t, f[1]), num(t, f[2])
			leak, leakImp := num(t, f[3]), num(t, f[4])
			if dose == 0 && (mctImp != 0 || leakImp != 0) {
				t.Errorf("%s: nonzero improvement at zero dose", table)
			}
			if mctImp > 0 && leakImp > 0 {
				t.Errorf("%s: dose %v improves both timing and leakage", table, dose)
			}
			if i > 0 {
				if mct >= prevMCT {
					t.Errorf("%s: MCT not decreasing in dose at %v", table, dose)
				}
				if leak <= prevLeak {
					t.Errorf("%s: leakage not increasing in dose at %v", table, dose)
				}
			}
			prevMCT, prevLeak = mct, leak
		}
	}

	// Table IV: checkTableIVShape.
	var ivRows [][]string
	for _, row := range sec["Table IV"][1:] {
		ivRows = append(ivRows, strings.Fields(row))
	}
	checkTableIVShape(t, ivRows)

	// Table VII: the 65 nm slack wall — a double-digit near-critical
	// fraction — versus (almost) none at 90 nm.
	for _, row := range sec["Table VII"][1:] {
		f := strings.Fields(row)
		f95 := num(t, f[1])
		is65 := strings.HasSuffix(f[0], "-65")
		if is65 && f95 < 3 {
			t.Errorf("Table VII: %s lost its slack wall (95-100%% band = %.2f%%)", f[0], f95)
		}
		if !is65 && f95 > 3 {
			t.Errorf("Table VII: %s grew a slack wall (95-100%% band = %.2f%%)", f[0], f95)
		}
	}

	// Table VIII: each stage only improves timing: nominal ≥ QCP ≥ dosePl.
	stageMCT := map[string]map[string]float64{}
	for _, row := range sec["Table VIII"][1:] {
		f := strings.Fields(row)
		design, stage := f[0], f[1]
		mct := num(t, f[len(f)-2])
		if stage == "Nom" {
			stage = "Nom Lgate"
		}
		if stageMCT[design] == nil {
			stageMCT[design] = map[string]float64{}
		}
		stageMCT[design][stage] = mct
	}
	for design, m := range stageMCT {
		if !(m["dosePl"] <= m["QCP"] && m["QCP"] <= m["Nom Lgate"]) {
			t.Errorf("Table VIII: %s stage ordering broken: nom %.3f, QCP %.3f, dosePl %.3f",
				design, m["Nom Lgate"], m["QCP"], m["dosePl"])
		}
	}

	// Table IX: the full-wafer consensus run — coupling must shrink the
	// across-wafer MCT spread below both baselines while every field
	// stays inside the ξ leakage budget.
	var waferRows [][]string
	for _, row := range sec["Table IX"][1:] {
		waferRows = append(waferRows, strings.Fields(row))
	}
	checkWaferTableShape(t, waferRows)

	// Table X: the actuator ablation — all three modes run at the same
	// τ target per design, so the joint run optimizes over a superset of
	// each single-actuator feasible region and must match or beat both
	// on leakage (up to solver tolerance); the bias rows must actually
	// carry bias domains and the dose-only rows must not.
	leakOf := map[string]map[string]float64{}
	for _, row := range sec["Table X"][1:] {
		f := strings.Fields(row)
		design, mode := f[0], f[1]
		if mode == "nominal" {
			continue
		}
		if leakOf[design] == nil {
			leakOf[design] = map[string]float64{}
		}
		leakOf[design][mode] = num(t, f[4])
		domains := f[6]
		if mode == "dose" && domains != "-" {
			t.Errorf("Table X: %s dose-only row reports %s bias domains", design, domains)
		}
		if mode != "dose" && num(t, domains) <= 0 {
			t.Errorf("Table X: %s %s row has no bias domains", design, mode)
		}
	}
	if len(leakOf) < 4 {
		t.Fatalf("Table X: ablation covers %d designs, want all 4", len(leakOf))
	}
	for design, m := range leakOf {
		joint, okJ := m["dose+bias"]
		dose, okD := m["dose"]
		bias, okB := m["bias"]
		if !okJ || !okD || !okB {
			t.Fatalf("Table X: %s missing an ablation mode: %v", design, m)
		}
		eps := 1e-3 * dose // solver/rounding tolerance on the printed µW
		if joint > dose+eps || joint > bias+eps {
			t.Errorf("Table X: %s joint leakage %.1f µW above a single-actuator run (dose %.1f, bias %.1f)",
				design, joint, dose, bias)
		}
	}

	// Fig. 10: profiles sorted ascending; at every rank Orig ≤ DMopt ≤
	// Bias and dosePl never below DMopt by more than rounding.
	var prev [4]float64
	for i, row := range sec["Fig. 10"][1:] {
		f := strings.Fields(row)
		orig, dmopt, dosepl, bias := num(t, f[1]), num(t, f[2]), num(t, f[3]), num(t, f[4])
		if !(orig <= dmopt && dmopt <= bias) {
			t.Errorf("Fig. 10 row %d: ordering broken (orig %.3f dmopt %.3f bias %.3f)", i, orig, dmopt, bias)
		}
		if dosepl < dmopt-0.0015 {
			t.Errorf("Fig. 10 row %d: dosePl %.3f fell below DMopt %.3f", i, dosepl, dmopt)
		}
		if i > 0 {
			for j, v := range []float64{orig, dmopt, dosepl, bias} {
				if v < prev[j] {
					t.Errorf("Fig. 10 row %d col %d: profile not ascending", i, j)
				}
			}
		}
		prev = [4]float64{orig, dmopt, dosepl, bias}
	}
}

// checkTableIVShape asserts the Table IV shape criteria on rows of
// fields (design, grid µm, engine, MCT ns, MCT imp. %, leakage µW,
// leakage imp. %, …); rows whose engine starts with "Nom" are the
// nominal baselines and are skipped.  The table holds 24 optimization
// rows (4 designs × 3 grids × QP and QCP).  The QP saves meaningful
// leakage at ~zero timing cost, the QCP buys timing without exceeding
// the nominal leakage, and the finest grid beats the coarsest for the
// QP on every design.  It is shared between the recorded-results check
// and the fresh re-run.
func checkTableIVShape(t *testing.T, rows [][]string) {
	t.Helper()
	type ivRow struct{ grid, mctImp, leakImp float64 }
	qpRows := map[string][]ivRow{}
	runs := 0
	for _, f := range rows {
		if strings.HasPrefix(f[2], "Nom") {
			continue
		}
		runs++
		r := ivRow{num(t, f[1]), num(t, f[4]), num(t, f[6])}
		switch f[2] {
		case "QP":
			if r.leakImp < 5 {
				t.Errorf("Table IV: %s grid %v QP leakage saving %.2f%% below the double-digit-class floor", f[0], r.grid, r.leakImp)
			}
			if r.mctImp < -1 {
				t.Errorf("Table IV: %s grid %v QP degrades timing %.2f%%", f[0], r.grid, r.mctImp)
			}
			qpRows[f[0]] = append(qpRows[f[0]], r)
		case "QCP":
			if r.mctImp <= 0 {
				t.Errorf("Table IV: %s grid %v QCP fails to improve timing (%.2f%%)", f[0], r.grid, r.mctImp)
			}
			if r.leakImp < -0.1 {
				t.Errorf("Table IV: %s grid %v QCP exceeds nominal leakage (%.2f%%)", f[0], r.grid, r.leakImp)
			}
		default:
			t.Errorf("Table IV: unknown engine %q", f[2])
		}
	}
	if runs != 24 {
		t.Errorf("Table IV: %d optimization rows, want 24", runs)
	}
	for design, rows := range qpRows {
		if len(rows) < 2 {
			t.Fatalf("Table IV: %s has %d QP rows", design, len(rows))
		}
		finest, coarsest := rows[0], rows[0]
		for _, r := range rows[1:] {
			if r.grid < finest.grid {
				finest = r
			}
			if r.grid > coarsest.grid {
				coarsest = r
			}
		}
		if finest.leakImp <= coarsest.leakImp {
			t.Errorf("Table IV: %s finest grid (%.2f%%) does not beat coarsest (%.2f%%)",
				design, finest.leakImp, coarsest.leakImp)
		}
	}
}

// checkWaferTableShape asserts the qualitative Table IX invariants on
// whitespace-split rows (field, bias nm, uniform MCT ns, uncoupled MCT
// ns, coupled MCT ns, coupled leak µW, leak-vs-nominal %).  It is
// shared between the recorded-results check and the fresh re-run, so a
// regenerated wafer table cannot silently lose the coupling win.
func checkWaferTableShape(t *testing.T, rows [][]string) {
	t.Helper()
	if len(rows) < 12 {
		t.Fatalf("Table IX: only %d field rows — a wafer has at least a dozen fields", len(rows))
	}
	spread := func(col int) float64 {
		lo, hi := num(t, rows[0][col]), num(t, rows[0][col])
		for _, f := range rows[1:] {
			v := num(t, f[col])
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo <= 0 {
			t.Fatalf("Table IX: non-positive MCT in column %d", col)
		}
		return 100 * (hi - lo) / lo
	}
	uniform, uncoupled, coupled := spread(2), spread(3), spread(4)
	if !(coupled < uncoupled && uncoupled < uniform) {
		t.Errorf("Table IX: spread ordering broken — uniform %.4f%%, uncoupled %.4f%%, coupled %.4f%%",
			uniform, uncoupled, coupled)
	}
	// The coupled column is the equalized one: near-flat across the
	// wafer (the printed precision bounds it well under half a percent).
	if coupled > 0.5 {
		t.Errorf("Table IX: coupled MCT spread %.4f%% — consensus failed to flatten the wafer", coupled)
	}
	for i, f := range rows {
		if vs := num(t, f[6]); vs > 2 {
			t.Errorf("Table IX row %d: coupled leakage %+.2f%% above nominal exceeds the ξ budget", i, vs)
		}
		// Per field the coupled dose may give back some of the
		// uncoupled field-optimal timing (that is the price of
		// consensus) but must still beat the uniform baseline.
		if num(t, f[4]) >= num(t, f[2]) {
			t.Errorf("Table IX row %d: coupled MCT not below the uniform-dose MCT", i)
		}
	}
}

// TestWaferFreshScale015 re-runs the full-wafer consensus experiment
// from scratch at scale 0.15 and holds the freshly computed table to
// the same shape criteria as the committed one.  Skipped under -short:
// it runs ~150 field solves.
func TestWaferFreshScale015(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh scale-0.15 wafer run skipped in -short mode")
	}
	c := New(WithScale(0.15))
	wr, err := c.WaferRunCtx(context.Background(), "AES-65", 10, WaferGeometry())
	if err != nil {
		t.Fatal(err)
	}
	checkWaferTableShape(t, WaferTable("AES-65", wr).Rows)
	if !(wr.CoupledSpreadPct < wr.UncoupledSpreadPct && wr.UncoupledSpreadPct < wr.UniformSpreadPct) {
		t.Errorf("fresh wafer: spread ordering broken — uniform %.4f%%, uncoupled %.4f%%, coupled %.4f%%",
			wr.UniformSpreadPct, wr.UncoupledSpreadPct, wr.CoupledSpreadPct)
	}
	for _, f := range wr.Fields {
		if f.Coupled.LeakUW > wr.NomLeakUW*1.001 {
			t.Errorf("fresh wafer field (%d,%d): coupled leakage %.2f µW exceeds nominal %.2f µW",
				f.Col, f.Row, f.Coupled.LeakUW, wr.NomLeakUW)
		}
	}
}

// TestShapeFreshSubset re-runs a fast subset of the scale-0.15 harness
// from scratch and checks the same shape criteria hold on freshly
// computed numbers, not just on the committed file: Table IV on all
// four presets at K = 2000 through the recorded file's checker, then
// sweeps, single runs and criticality on AES-65.  Skipped under -short:
// it costs a few seconds of real optimization.
func TestShapeFreshSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh scale-0.15 subset skipped in -short mode")
	}
	ctx := context.Background()
	c := New(WithScale(0.15), WithTopK(2000))

	iv, _, err := c.TableIVCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	checkTableIVShape(t, iv.Rows)

	// Uniform sweep on AES-65: the Tables II/III trade-off shape.
	rows, err := c.DoseSweepCtx(ctx, "AES-65", SweepDoses())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if r.MCTImp > 0 && r.LeakImp > 0 {
			t.Errorf("fresh sweep: dose %v improves both timing and leakage", r.Dose)
		}
		if i > 0 && rows[i].MCTns >= rows[i-1].MCTns {
			t.Errorf("fresh sweep: MCT not decreasing at dose %v", r.Dose)
		}
	}

	// DMopt on AES-65, grid 5 µm: QP saves leakage without hurting
	// timing; QCP buys timing inside the ξ=0 leakage budget.
	qpRes, err := c.RunDMCtx(ctx, "AES-65", 5, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if qpRes.Golden.LeakUW >= qpRes.Nominal.LeakUW {
		t.Errorf("fresh QP: leakage not reduced (%.1f vs %.1f µW)", qpRes.Golden.LeakUW, qpRes.Nominal.LeakUW)
	}
	if qpRes.Golden.MCTps > qpRes.Nominal.MCTps*1.01 {
		t.Errorf("fresh QP: timing degraded beyond 1%% (%.1f vs %.1f ps)", qpRes.Golden.MCTps, qpRes.Nominal.MCTps)
	}
	qcpRes, err := c.RunDMCtx(ctx, "AES-65", 5, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if qcpRes.Golden.MCTps >= qcpRes.Nominal.MCTps {
		t.Errorf("fresh QCP: timing not improved (%.1f vs %.1f ps)", qcpRes.Golden.MCTps, qcpRes.Nominal.MCTps)
	}
	if qcpRes.Golden.LeakUW > qcpRes.Nominal.LeakUW*1.001 {
		t.Errorf("fresh QCP: leakage exceeds nominal (%.1f vs %.1f µW)", qcpRes.Golden.LeakUW, qcpRes.Nominal.LeakUW)
	}

	// Criticality: the AES-65 slack wall is present at scale 0.15.
	// CriticalityCtx returns fractions; Table VII prints them ×100.
	f95, _, _, err := c.CriticalityCtx(ctx, "AES-65")
	if err != nil {
		t.Fatal(err)
	}
	if f95 < 0.03 {
		t.Errorf("fresh criticality: AES-65 95-100%% band %.2f%% — slack wall missing", 100*f95)
	}
}
