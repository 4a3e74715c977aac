package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestDisabledIsInert: every operation on a context without a Recorder
// (and on a nil *Recorder) must be a no-op that allocates nothing.
func TestDisabledIsInert(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("From on bare context should be nil")
	}
	var r *Recorder
	r.Add("x", 1)
	r.Set("x", 1)
	r.Observe("x", time.Second)
	if r.Counter("x") != 0 || r.Gauge("x") != 0 {
		t.Fatal("nil recorder should read as zero")
	}
	ctx2, sp := Start(ctx, "a")
	if ctx2 != ctx {
		t.Fatal("Start on disabled context must return ctx unchanged")
	}
	sp.End()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil recorder snapshot should be empty")
	}

	allocs := testing.AllocsPerRun(100, func() {
		Add(ctx, "c", 1)
		Set(ctx, "g", 2)
		Observe(ctx, "t", time.Millisecond)
		_, sp := Start(ctx, "span")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f objects per op, want 0", allocs)
	}
}

// TestCountersGaugesTimers checks basic accumulation semantics.
func TestCountersGaugesTimers(t *testing.T) {
	r := New()
	ctx := With(context.Background(), r)
	Add(ctx, "c", 2)
	Add(ctx, "c", 3)
	Set(ctx, "g", 1.5)
	Set(ctx, "g", 2.5) // gauge keeps the last value
	Observe(ctx, "t", 10*time.Millisecond)
	Observe(ctx, "t", 30*time.Millisecond)

	if got := r.Counter("c"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := r.Gauge("g"); got != 2.5 {
		t.Fatalf("gauge = %g, want 2.5", got)
	}
	snap := r.Snapshot()
	tt := snap.Timers["t"]
	if tt.Count != 2 || tt.TotalNS != int64(40*time.Millisecond) {
		t.Fatalf("timer = %+v, want count 2 total 40ms", tt)
	}
}

// TestSpanTreeMerging: same-named spans under one parent merge into one
// node; nesting follows the context chain.
func TestSpanTreeMerging(t *testing.T) {
	r := New()
	root := With(context.Background(), r)
	for i := 0; i < 3; i++ {
		ctx, outer := Start(root, "outer")
		for j := 0; j < 2; j++ {
			_, inner := Start(ctx, "inner")
			inner.End()
		}
		outer.End()
	}
	_, solo := Start(root, "solo")
	solo.End()

	snap := r.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d top-level spans, want 2 (outer, solo): %+v", len(snap.Spans), snap.Spans)
	}
	outer := snap.Spans[0]
	if outer.Name != "outer" || outer.Count != 3 {
		t.Fatalf("outer = %+v, want name outer count 3", outer)
	}
	if len(outer.Children) != 1 || outer.Children[0].Name != "inner" || outer.Children[0].Count != 6 {
		t.Fatalf("inner = %+v, want one child inner with count 6", outer.Children)
	}
	if snap.Spans[1].Name != "solo" || snap.Spans[1].Count != 1 {
		t.Fatalf("solo = %+v", snap.Spans[1])
	}
}

// TestConcurrentUpdates hammers one Recorder from many goroutines —
// counters, gauges, timers, sibling and nested spans — and checks the
// totals.  Run under -race this is the concurrency-safety test for the
// par worker pools.
func TestConcurrentUpdates(t *testing.T) {
	r := New()
	root := With(context.Background(), r)
	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				Add(root, "n", 1)
				Set(root, "last", float64(i))
				Observe(root, "lap", time.Microsecond)
				ctx, sp := Start(root, "worker")
				_, in := Start(ctx, "inner")
				in.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n"); got != workers*iters {
		t.Fatalf("counter n = %d, want %d", got, workers*iters)
	}
	snap := r.Snapshot()
	if snap.Timers["lap"].Count != workers*iters {
		t.Fatalf("timer lap count = %d, want %d", snap.Timers["lap"].Count, workers*iters)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Count != workers*iters {
		t.Fatalf("span worker = %+v, want single node count %d", snap.Spans, workers*iters)
	}
	if c := snap.Spans[0].Children; len(c) != 1 || c[0].Count != workers*iters {
		t.Fatalf("span inner = %+v, want count %d", c, workers*iters)
	}
}

// TestReportJSON writes a report and re-reads it, checking the schema
// stamp and that the recorded metrics survive the round trip.
func TestReportJSON(t *testing.T) {
	r := New()
	ctx := With(context.Background(), r)
	_, sp := Start(ctx, "flow/golden")
	Add(ctx, "sta/analyses", 4)
	sp.End()

	rep := r.Report("tables", 0.15, 2000, 1, 123*time.Millisecond)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back.Schema != Schema {
		t.Fatalf("schema = %q, want %q", back.Schema, Schema)
	}
	if back.GitRev == "" || back.GoVersion == "" || back.Timestamp == "" {
		t.Fatalf("missing provenance fields: %+v", back)
	}
	if back.Scale != 0.15 || back.TopK != 2000 || back.WallNS != int64(123*time.Millisecond) {
		t.Fatalf("run parameters did not round-trip: %+v", back)
	}
	if back.Counters["sta/analyses"] != 4 {
		t.Fatalf("counter did not round-trip: %+v", back.Counters)
	}
	if len(back.Spans) != 1 || back.Spans[0].Name != "flow/golden" {
		t.Fatalf("span tree did not round-trip: %+v", back.Spans)
	}
}

// TestReportMachineFacts checks that every dmopt-bench/v1 document
// carries the machine it ran on: the gomaxprocs and nproc keys, equal
// to runtime.GOMAXPROCS(0) and runtime.NumCPU().
func TestReportMachineFacts(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	b, err := json.Marshal(New().Report("facts", 0, 0, 1, time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["gomaxprocs"] != 1.0 {
		t.Errorf("gomaxprocs = %v, want 1", doc["gomaxprocs"])
	}
	if doc["nproc"] != float64(runtime.NumCPU()) {
		t.Errorf("nproc = %v, want %d", doc["nproc"], runtime.NumCPU())
	}
	if doc["schema"] != Schema {
		t.Errorf("schema = %v, want %s", doc["schema"], Schema)
	}
}

// TestWriteTree smoke-tests the human-readable renderer.
func TestWriteTree(t *testing.T) {
	r := New()
	ctx := With(context.Background(), r)
	c2, sp := Start(ctx, "flow/dmopt")
	_, in := Start(c2, "core/qp")
	in.End()
	sp.End()
	Add(ctx, "qp/iterations", 42)
	Set(ctx, "qp/prim_res", 1e-7)
	Observe(ctx, "sta/update", 3*time.Millisecond)

	var buf bytes.Buffer
	r.WriteTree(&buf, time.Second)
	out := buf.String()
	for _, want := range []string{"flow/dmopt", "core/qp", "qp/iterations", "qp/prim_res", "sta/update"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("tree output missing %q:\n%s", want, out)
		}
	}
}
