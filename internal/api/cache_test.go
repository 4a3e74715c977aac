package api

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestCacheBuildOnce: concurrent callers of one key share a single
// build and all observe the same value.
func TestCacheBuildOnce(t *testing.T) {
	c := NewCache(obs.New(), 0)
	var builds atomic.Int64
	var wg sync.WaitGroup
	vals := make([]any, 16)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrBuild(context.Background(), "k", func(context.Context) (any, int64, error) {
				builds.Add(1)
				return "built", 8, nil
			})
			if err != nil {
				t.Errorf("GetOrBuild: %v", err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, v := range vals {
		if v != "built" {
			t.Fatalf("caller %d saw %v", i, v)
		}
	}
}

// TestCacheEviction: inserts past the byte budget evict from the LRU
// back; touching a key protects it.
func TestCacheEviction(t *testing.T) {
	rec := obs.New()
	c := NewCache(rec, 100)
	build := func(key string, bytes int64) {
		t.Helper()
		if _, _, err := c.GetOrBuild(context.Background(), key, func(context.Context) (any, int64, error) {
			return key, bytes, nil
		}); err != nil {
			t.Fatalf("build %s: %v", key, err)
		}
	}
	build("a", 40)
	build("b", 40)
	if got := c.UsedBytes(); got != 80 {
		t.Fatalf("used = %d, want 80", got)
	}
	// Touch a so b is the LRU victim.
	if _, hit, _ := c.GetOrBuild(context.Background(), "a", nil); !hit {
		t.Fatalf("expected hit on a")
	}
	build("c", 40) // 120 > 100: evicts b
	if got := c.Len(); got != 2 {
		t.Fatalf("len = %d, want 2", got)
	}
	if got := c.UsedBytes(); got != 80 {
		t.Fatalf("used = %d after eviction, want 80", got)
	}
	var rebuilt bool
	c.GetOrBuild(context.Background(), "b", func(context.Context) (any, int64, error) {
		rebuilt = true
		return "b", 10, nil
	})
	if !rebuilt {
		t.Fatalf("b survived eviction")
	}
	if _, hit, _ := c.GetOrBuild(context.Background(), "a", nil); !hit {
		t.Fatalf("a was evicted despite recent touch")
	}
	if n := rec.Snapshot().Counters["serve/cache_evictions"]; n < 1 {
		t.Fatalf("eviction counter = %d, want >= 1", n)
	}
}

// TestCacheOversizeSingleton: one artifact larger than the whole budget
// still serves and is the sole resident.
func TestCacheOversizeSingleton(t *testing.T) {
	c := NewCache(obs.New(), 10)
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("big-%d", i)
		v, _, err := c.GetOrBuild(context.Background(), key, func(context.Context) (any, int64, error) {
			return key, 1000, nil
		})
		if err != nil || v != key {
			t.Fatalf("build %s: v=%v err=%v", key, v, err)
		}
		if got := c.Len(); got != 1 {
			t.Fatalf("len = %d after insert %d, want 1", got, i)
		}
	}
}

// TestCacheCanceledBuildNotCached: a build aborted by cancellation must
// not poison the key for the next caller.
func TestCacheCanceledBuildNotCached(t *testing.T) {
	c := NewCache(obs.New(), 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrBuild(ctx, "k", func(ctx context.Context) (any, int64, error) {
		return nil, 0, fmt.Errorf("stage aborted: %w", ctx.Err())
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	v, hit, err := c.GetOrBuild(context.Background(), "k", func(context.Context) (any, int64, error) {
		return "good", 8, nil
	})
	if err != nil || hit || v != "good" {
		t.Fatalf("retry after cancel: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestCacheDeterministicErrorCached: a non-canceled build error is a
// result and is served from cache like any value.
func TestCacheDeterministicErrorCached(t *testing.T) {
	c := NewCache(obs.New(), 0)
	boom := errors.New("bad spec")
	var builds int
	for i := 0; i < 2; i++ {
		_, _, err := c.GetOrBuild(context.Background(), "k", func(context.Context) (any, int64, error) {
			builds++
			return nil, 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	}
	if builds != 1 {
		t.Fatalf("deterministic error rebuilt %d times, want 1", builds)
	}
}

// TestPrepareKeepsGoldenWithoutDesign: under a budget that fits the
// golden, model and compile but not the design, the first Prepare
// evicts the design, and a second Prepare serves the whole chain from
// the cache without generating the design again.
func TestPrepareKeepsGoldenWithoutDesign(t *testing.T) {
	ctx := context.Background()
	spec := JobSpec{Design: "AES-65", Scale: 0.05}
	cold, err := Prepare(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := goldenBytes(cold.Golden) + modelBytes(cold.Model) + cold.Compiled.ApproxBytes()

	rec := obs.New()
	c := NewCache(rec, budget)
	first, err := Prepare(ctx, spec, c)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Counter("serve/cache_evictions"); n != 1 {
		t.Fatalf("first prepare evicted %d entries, want 1 (the design)", n)
	}
	if n := rec.Counter("serve/cache_builds"); n != 4 {
		t.Fatalf("first prepare built %d artifacts, want 4", n)
	}
	second, err := Prepare(ctx, spec, c)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.Counter("serve/cache_builds"); n != 4 {
		t.Fatalf("second prepare rebuilt %d artifacts, want none", n-4)
	}
	if second.Golden != first.Golden || second.Model != first.Model || second.Compiled != first.Compiled {
		t.Fatal("second prepare did not serve the cached artifacts")
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("%d resident entries, want 3 (golden, model, compiled)", got)
	}
}
