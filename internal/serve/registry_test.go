package serve

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// TestRegistryDropsOldestFinished pins the registry bound with
// KeepJobs = 3: each finished job past the bound drops the oldest
// finished one, while the running job and the queued one ahead of them
// stay however old they get, and once those finish they go first.
func TestRegistryDropsOldestFinished(t *testing.T) {
	srv := New(Config{MaxRunning: 1, MaxQueue: 16, KeepJobs: 3}, obs.New())
	defer srv.Close()
	release := make(chan struct{})
	srv.exec = func(ctx context.Context, art api.Artifacts, spec api.JobSpec) (*api.JobResult, error) {
		if spec.Delta == 2 {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &api.JobResult{}, nil
	}
	spec := func(delta float64) api.JobSpec {
		return api.JobSpec{Design: "AES-65", Scale: 0.02, Delta: delta}
	}
	submit := func(delta float64) *Job {
		t.Helper()
		j, err := srv.Submit(spec(delta))
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	ids := func() []string {
		var out []string
		for _, j := range srv.Jobs() {
			out = append(out, j.ID)
		}
		return out
	}
	finish := func(j *Job) {
		t.Helper()
		srv.Wait(context.Background(), j, 0)
		if !srv.View(j).State.Terminal() {
			t.Fatalf("%s did not finish", j.ID)
		}
	}
	want := func(step string, jobs ...*Job) {
		t.Helper()
		var w []string
		for _, j := range jobs {
			w = append(w, j.ID)
		}
		if got := ids(); !slices.Equal(got, w) {
			t.Fatalf("%s: registry %v, want %v", step, got, w)
		}
	}

	running := submit(2)
	deadline := time.Now().Add(30 * time.Second)
	for srv.View(running).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never ran")
		}
		time.Sleep(time.Millisecond)
	}
	queued := submit(2.1)
	var dropped []*Job
	for k := 0; k < 4; k++ {
		c := submit(2.2 + 0.1*float64(k))
		if _, err := srv.Cancel(c.ID); err != nil {
			t.Fatal(err)
		}
		finish(c)
		want("canceled queued job", running, queued, c)
		dropped = append(dropped, c)
	}
	// Each cancel above is one job past the bound, and the oldest
	// finished job is the one canceled before it.
	for _, c := range dropped[:len(dropped)-1] {
		if _, err := srv.Get(c.ID); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: still registered (%v), want dropped", c.ID, err)
		}
	}

	close(release)
	finish(running)
	finish(queued)
	last := dropped[len(dropped)-1]
	want("running and queued jobs finished", running, queued, last)
	done := submit(2.9)
	finish(done)
	want("one more finished job", queued, last, done)
}
