package sta

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// scratchJob is one TopPathsDAG call of the scratch-reuse test with the
// result it must reproduce: the oracle's paths, or with a cutoff a
// prefix of them holding every path above it.
type scratchJob struct {
	label  string
	c      pathSearchCase
	k      int
	cutoff float64
	oracle []*Path
}

// check runs the job once and describes how its output departs from
// the oracle, or returns "".
func (j scratchJob) check() string {
	return diffCutoffPrefix(pinSearch(j.c, j.k, 0, j.cutoff), j.oracle, j.cutoff)
}

// TestTopPathsScratchReuse interleaves searches on designs of different
// sizes, so every call runs on buffers a larger or a smaller search
// left behind.  k runs over 1, 64, 2000 and 5000; at 5000 the initial
// arena of 4k states is past the pool's cap, so those scratches are
// dropped rather than pooled.  Each k runs with no cutoff and with
// cutoffs on, just above and around the oracle's own delays.  Every
// result must match the container/heap oracle, first with the calls in
// sequence, then with four goroutines sharing the pool.
func TestTopPathsScratchReuse(t *testing.T) {
	var cases []pathSearchCase
	for _, seed := range []int64{3, 77} {
		r, err := AnalyzeCtx(context.Background(), mesh(t, seed), DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase("mesh", r), shiftedCase("mesh shifted", r, seed))
	}
	for _, seed := range []int64{2, 5, 9} {
		r, err := AnalyzeCtx(context.Background(), randomDesign(rand.New(rand.NewSource(seed))), DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenCase("random", r), shiftedCase("random shifted", r, seed))
	}

	var jobs []scratchJob
	for ci, c := range cases {
		for _, k := range []int{1, 64, 2000, 5000} {
			oracle := topPathsHeapOracle(c.circ, c.order, c.arc, c.start, c.end, k, 0)
			cutoffs := []float64{NoCutoff}
			if len(oracle) > 0 {
				for _, i := range []int{0, len(oracle) / 2} {
					d := oracle[i].Delay
					cutoffs = append(cutoffs, d, math.Nextafter(d, math.Inf(1)), d-1e-6, d+1)
				}
			}
			for _, cut := range cutoffs {
				jobs = append(jobs, scratchJob{
					label: fmt.Sprintf("case %d (%s) k=%d cutoff=%v", ci, c.name, k, cut),
					c:     c, k: k, cutoff: cut, oracle: oracle,
				})
			}
		}
	}
	// Interleave large and small designs: job i of the shuffled list
	// runs on whatever job i−1 left in the pool.
	rand.New(rand.NewSource(1)).Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

	for _, j := range jobs {
		if d := j.check(); d != "" {
			t.Fatalf("sequential %s: %s", j.label, d)
		}
	}

	const workers = 4
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(len(jobs)) {
				j := jobs[i]
				if d := j.check(); d != "" {
					errs[w] = j.label + ": " + d
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d, %s", w, e)
		}
	}
}

// TestTopPathsSteadyStateAllocs: once a call has warmed the pool, a
// search allocates only what it returns — each path and its node
// slice — plus the growth of the result slice.
func TestTopPathsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	r, err := AnalyzeCtx(context.Background(), mesh(t, 3), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 10, 64} {
		var paths []*Path
		search := func() { paths = r.TopPaths(k, 0) }
		search()
		allocs := testing.AllocsPerRun(100, search)
		t.Logf("k=%d: %d paths, %.0f allocations per search", k, len(paths), allocs)
		if limit := float64(2*len(paths) + 8); allocs > limit {
			t.Errorf("k=%d: %.0f allocations per search for %d paths, want at most %.0f", k, allocs, len(paths), limit)
		}
	}
}
