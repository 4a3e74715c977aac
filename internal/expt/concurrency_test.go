package expt

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestMemoizedCachesConcurrent is the regression test for the
// design/golden memoization: concurrent callers must share one build
// (same pointer out) without racing.  Run with -race.
func TestMemoizedCachesConcurrent(t *testing.T) {
	c := New(WithScale(0.03), WithTopK(100), WithWorkers(4))
	const callers = 8
	var wg sync.WaitGroup
	designs := make([]interface{}, callers)
	goldens := make([]interface{}, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := c.DesignCtx(context.Background(), "AES-65")
			if err != nil {
				t.Error(err)
				return
			}
			g, err := c.GoldenCtx(context.Background(), "AES-65")
			if err != nil {
				t.Error(err)
				return
			}
			designs[i] = d
			goldens[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if designs[i] != designs[0] {
			t.Fatal("concurrent Design calls built more than one design")
		}
		if goldens[i] != goldens[0] {
			t.Fatal("concurrent Golden calls built more than one analysis")
		}
	}
}

// TestCanceledBuildNotMemoized asserts a canceled build does not poison
// the cache: the next caller retries and succeeds.
func TestCanceledBuildNotMemoized(t *testing.T) {
	c := New(WithScale(0.03), WithTopK(100))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DesignCtx(ctx, "AES-65"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if _, err := c.DesignCtx(context.Background(), "AES-65"); err != nil {
		t.Fatalf("canceled build poisoned the cache: %v", err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.GoldenCtx(ctx2, "AES-90"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped context.Canceled, got %v", err)
	}
	if _, err := c.GoldenCtx(context.Background(), "AES-90"); err != nil {
		t.Fatalf("canceled build poisoned the golden cache: %v", err)
	}
}

// TestTableIVWorkersEquivalent asserts the full Table IV regeneration —
// 24 concurrent optimizations sharing the memoized caches — produces
// identical golden signoff at workers=1 and workers=8.  Only the
// reported wall-clock runtime may differ.
func TestTableIVWorkersEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table IV regeneration")
	}
	mk := func(workers int) (*Table, []DMRow) {
		c := New(WithScale(0.02), WithTopK(100), WithWorkers(workers))
		tbl, rows, err := c.TableIVCtx(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tbl, rows
	}
	t1, r1 := mk(1)
	t8, r8 := mk(8)
	if len(r1) != len(r8) || len(t1.Rows) != len(t8.Rows) {
		t.Fatalf("row counts differ: %d/%d vs %d/%d", len(r1), len(t1.Rows), len(r8), len(t8.Rows))
	}
	for i := range r1 {
		a, b := r1[i], r8[i]
		a.Runtime, b.Runtime = 0, 0
		if a != b {
			t.Fatalf("DMRow %d differs:\n  workers=1: %+v\n  workers=8: %+v", i, r1[i], r8[i])
		}
	}
	for i := range t1.Rows {
		for j := range t1.Rows[i] {
			if j == len(t1.Rows[i])-1 {
				continue // runtime column
			}
			if t1.Rows[i][j] != t8.Rows[i][j] {
				t.Fatalf("table cell [%d][%d] differs: %q vs %q", i, j, t1.Rows[i][j], t8.Rows[i][j])
			}
		}
	}
}

// TestDoseSweepWorkersEquivalent asserts the 21-point dose sweep rows
// are bit-identical whether the points run serially or fanned out.
func TestDoseSweepWorkersEquivalent(t *testing.T) {
	c1 := New(WithScale(0.03), WithTopK(100), WithWorkers(1))
	c8 := New(WithScale(0.03), WithTopK(100), WithWorkers(8))
	r1, err := c1.DoseSweepCtx(context.Background(), "AES-65", SweepDoses())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := c8.DoseSweepCtx(context.Background(), "AES-65", SweepDoses())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r8) {
		t.Fatalf("row counts differ: %d vs %d", len(r1), len(r8))
	}
	for i := range r1 {
		if r1[i] != r8[i] {
			t.Fatalf("sweep row %d differs: %+v vs %+v", i, r1[i], r8[i])
		}
	}
}
