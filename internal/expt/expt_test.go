package expt

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// ctx returns a small-scale harness context shared by shape tests.
func ctx() *Context { return New(WithScale(0.05), WithTopK(400)) }

func TestFigShapes(t *testing.T) {
	// Fig. 3: delay increases with L, near-linear.
	f3t := Fig3()
	if len(f3t.Rows) < 5 {
		t.Fatal("Fig3 too short")
	}
	prev := -1.0
	for _, r := range f3t.Rows {
		v := atof(t, r[1])
		if v <= prev {
			t.Fatal("Fig3 must be increasing")
		}
		prev = v
	}
	// Fig. 4: delay decreases with ΔW.
	f4t := Fig4()
	if atof(t, f4t.Rows[0][1]) <= atof(t, f4t.Rows[len(f4t.Rows)-1][1]) {
		t.Error("Fig4 must be decreasing")
	}
	// Fig. 5: leakage decreasing and convex in L.
	f5t := Fig5()
	a := atof(t, f5t.Rows[0][1])
	b := atof(t, f5t.Rows[len(f5t.Rows)/2][1])
	c := atof(t, f5t.Rows[len(f5t.Rows)-1][1])
	if !(a > b && b > c) {
		t.Error("Fig5 must be decreasing")
	}
	if (a - b) <= (b - c) {
		t.Error("Fig5 must be convex (exponential-like)")
	}
	// Fig. 6: leakage increasing ~linearly with ΔW.
	f6t := Fig6()
	if atof(t, f6t.Rows[0][1]) >= atof(t, f6t.Rows[len(f6t.Rows)-1][1]) {
		t.Error("Fig6 must be increasing")
	}
	// Fig. 2: higher dose → smaller CD.
	f2t := Fig2()
	if atof(t, f2t.Rows[0][2]) <= atof(t, f2t.Rows[len(f2t.Rows)-1][2]) {
		t.Error("Fig2: CD must shrink as dose grows")
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q", s)
	}
	return v
}

func TestTableIAndFormat(t *testing.T) {
	c := ctx()
	tab, err := c.TableICtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("Table I rows = %d", len(tab.Rows))
	}
	txt := tab.Format()
	if !strings.Contains(txt, "AES-65") || !strings.Contains(txt, "Table I") {
		t.Error("Format output incomplete")
	}
	md := tab.Markdown()
	if !strings.Contains(md, "| AES-65 |") && !strings.Contains(md, "| AES-65(x0.05) |") {
		t.Errorf("Markdown output incomplete:\n%s", md)
	}
}

// TestDoseSweepShape verifies the Tables II/III no-free-lunch shape:
// higher uniform dose monotonically improves MCT and worsens leakage.
func TestDoseSweepShape(t *testing.T) {
	c := ctx()
	rows, err := c.DoseSweepCtx(context.Background(), "AES-65", []float64{-5, -2, 0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].MCTns >= rows[i-1].MCTns {
			t.Errorf("MCT must fall as dose rises: %+v vs %+v", rows[i-1], rows[i])
		}
		if rows[i].LeakUW <= rows[i-1].LeakUW {
			t.Errorf("leakage must rise with dose")
		}
	}
	// Zero dose row is the baseline.
	for _, r := range rows {
		if r.Dose == 0 && (r.MCTImp != 0 || r.LeakImp != 0) {
			t.Errorf("zero-dose row should have zero improvements: %+v", r)
		}
	}
	// Asymmetric gains: at +5% the leakage penalty exceeds the timing
	// gain in magnitude (the paper's core motivation for DMopt).
	last := rows[len(rows)-1]
	if -last.LeakImp <= last.MCTImp {
		t.Errorf("at +5%% dose, leakage penalty (%.1f%%) should exceed timing gain (%.1f%%)",
			-last.LeakImp, last.MCTImp)
	}
}

// TestCriticalityOrdering checks the Table VII story: the 65 nm designs
// carry a bigger near-critical wall than their 90 nm counterparts.
func TestCriticalityOrdering(t *testing.T) {
	c := New(WithScale(0.1), WithTopK(400))
	a65, _, _, err := c.CriticalityCtx(context.Background(), "AES-65")
	if err != nil {
		t.Fatal(err)
	}
	a90, _, _, err := c.CriticalityCtx(context.Background(), "AES-90")
	if err != nil {
		t.Fatal(err)
	}
	if a65 <= a90 {
		t.Errorf("AES-65 wall (%.3f) should exceed AES-90 (%.3f)", a65, a90)
	}
}

// TestRunDMShapes runs one QP and one QCP and asserts the headline
// result: leakage reduction without timing loss, and timing gain without
// leakage increase.
func TestRunDMShapes(t *testing.T) {
	c := ctx()
	qp, err := c.RunDMCtx(context.Background(), "AES-65", 5, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if qp.Golden.LeakUW >= qp.Nominal.LeakUW {
		t.Error("QP must reduce leakage")
	}
	if qp.Golden.MCTps > qp.Nominal.MCTps*1.01 {
		t.Error("QP must hold timing")
	}
	qcp, err := c.RunDMCtx(context.Background(), "AES-65", 5, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if qcp.Golden.MCTps >= qcp.Nominal.MCTps {
		t.Error("QCP must improve timing")
	}
	if qcp.Golden.LeakUW > qcp.Nominal.LeakUW*1.02 {
		t.Error("QCP must hold leakage")
	}
}

func TestTableVIIRenders(t *testing.T) {
	c := New(WithScale(0.05), WithTopK(200))
	tab, err := c.TableVIICtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestSweepDoses(t *testing.T) {
	d := SweepDoses()
	if len(d) != 21 || d[0] != -5 || d[20] != 5 || d[10] != 0 {
		t.Errorf("SweepDoses = %v", d)
	}
}

func TestContextCaching(t *testing.T) {
	c := ctx()
	d1, err := c.DesignCtx(context.Background(), "AES-65")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := c.DesignCtx(context.Background(), "AES-65")
	if d1 != d2 {
		t.Error("designs must be cached")
	}
	g1, err := c.GoldenCtx(context.Background(), "AES-65")
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := c.GoldenCtx(context.Background(), "AES-65")
	if g1 != g2 {
		t.Error("goldens must be cached")
	}
	if _, err := c.DesignCtx(context.Background(), "NOPE"); err == nil {
		t.Error("unknown design must fail")
	}
}
