// Benchmarks that regenerate every table and figure of the paper's
// evaluation section.  Each benchmark prints its reproduced rows once
// (captured in bench_output.txt by the top-level run script) and then
// times the underlying experiment.
//
// The design scale defaults to a small fraction of the paper's full
// testcase sizes so the whole suite runs in minutes; set
// REPRO_BENCH_SCALE=1 to benchmark the full Table I designs.
package repro_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/expt"
)

func benchScale() float64 {
	if v := os.Getenv("REPRO_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 && f <= 1 {
			return f
		}
	}
	return 0.06
}

var (
	ctxOnce sync.Once
	ctx     *expt.Context
)

func harness() *expt.Context {
	ctxOnce.Do(func() {
		ctx = expt.New(expt.WithScale(benchScale()), expt.WithTopK(1000))
	})
	return ctx
}

var printed sync.Map

// printOnce emits a table the first time its benchmark runs.
func printOnce(key string, f func(context.Context) (*expt.Table, error), b *testing.B) {
	if _, loaded := printed.LoadOrStore(key, true); loaded {
		return
	}
	t, err := f(context.Background())
	if err != nil {
		b.Fatalf("%s: %v", key, err)
	}
	fmt.Println(t.Format())
}

func BenchmarkFig2DoseSensitivity(b *testing.B) {
	printOnce("fig2", func(context.Context) (*expt.Table, error) { return expt.Fig2(), nil }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = expt.Fig2()
	}
}

func BenchmarkFig3DelayVsLength(b *testing.B) {
	printOnce("fig3", func(context.Context) (*expt.Table, error) { return expt.Fig3(), nil }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = expt.Fig3()
	}
}

func BenchmarkFig4DelayVsWidth(b *testing.B) {
	printOnce("fig4", func(context.Context) (*expt.Table, error) { return expt.Fig4(), nil }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = expt.Fig4()
	}
}

func BenchmarkFig5LeakageVsLength(b *testing.B) {
	printOnce("fig5", func(context.Context) (*expt.Table, error) { return expt.Fig5(), nil }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = expt.Fig5()
	}
}

func BenchmarkFig6LeakageVsWidth(b *testing.B) {
	printOnce("fig6", func(context.Context) (*expt.Table, error) { return expt.Fig6(), nil }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = expt.Fig6()
	}
}

func BenchmarkTableIDesigns(b *testing.B) {
	c := harness()
	printOnce("tableI", c.TableICtx, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TableICtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIDoseSweepAES65(b *testing.B) {
	c := harness()
	printOnce("tableII", c.TableIICtx, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DoseSweepCtx(context.Background(), "AES-65", expt.SweepDoses()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIIDoseSweepAES90(b *testing.B) {
	c := harness()
	printOnce("tableIII", c.TableIIICtx, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DoseSweepCtx(context.Background(), "AES-90", expt.SweepDoses()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVDMoptPoly(b *testing.B) {
	c := harness()
	printOnce("tableIV", func(ctx context.Context) (*expt.Table, error) {
		t, _, err := c.TableIVCtx(ctx)
		return t, err
	}, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Time one representative optimization (AES-65, finest grid, QP).
		if _, err := c.RunDMCtx(context.Background(), "AES-65", 5, false, false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTableIV times the full 24-optimization Table IV fan at a fixed
// worker count.  The design/golden caches are warmed before the timer
// so the measurement isolates the optimization fan-out that the worker
// pool parallelizes.  Serial and parallel runs produce bit-identical
// tables (see internal/expt TestTableIVWorkersEquivalent); only the
// wall time differs.
func benchTableIV(b *testing.B, workers int) {
	c := expt.New(expt.WithScale(benchScale()), expt.WithTopK(1000), expt.WithWorkers(workers))
	if _, err := c.DesignCtx(context.Background(), "AES-65"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.TableIVCtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIVSerial(b *testing.B)   { benchTableIV(b, 1) }
func BenchmarkTableIVParallel(b *testing.B) { benchTableIV(b, 0) }

func BenchmarkTableVQCPBothLayers(b *testing.B) {
	c := harness()
	printOnce("tableV", func(ctx context.Context) (*expt.Table, error) {
		t, _, err := c.TableVCtx(ctx)
		return t, err
	}, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunDMCtx(context.Background(), "AES-65", 5, true, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVIQPBothLayers(b *testing.B) {
	c := harness()
	printOnce("tableVI", func(ctx context.Context) (*expt.Table, error) {
		t, _, err := c.TableVICtx(ctx)
		return t, err
	}, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunDMCtx(context.Background(), "AES-65", 5, false, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVIICriticality(b *testing.B) {
	c := harness()
	printOnce("tableVII", c.TableVIICtx, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := c.CriticalityCtx(context.Background(), "AES-65"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVIIIDosePl(b *testing.B) {
	c := harness()
	printOnce("tableVIII", c.TableVIIICtx, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.TableVIIICtx(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10SlackProfiles(b *testing.B) {
	c := harness()
	printOnce("fig10", func(ctx context.Context) (*expt.Table, error) { return c.Fig10Ctx(ctx, "AES-65", 16) }, b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig10ProfilesCtx(context.Background(), "AES-65"); err != nil {
			b.Fatal(err)
		}
	}
}
