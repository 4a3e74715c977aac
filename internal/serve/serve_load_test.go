// Load soak for the job service (ROADMAP "serve load test"): thousands
// of mixed small specs pushed through the HTTP surface by concurrent
// clients, with duplicate specs exercising in-flight dedupe, mid-queue
// cancellations, and admission-control overflow — then a full
// accounting audit (no job lost, cache counters consistent) and a
// goroutine-leak check after shutdown.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/gen"
)

// soakSpecs is the mixed small-spec family the soak cycles through:
// four tiny distinct designs × {qp, qcp} × two smoothness bounds.
// Tiny inline presets keep an individual solve in the milliseconds so
// thousands of submissions stay affordable; distinctness comes from the
// seed, so every design/golden/model/compile cache key is exercised.
func soakSpecs() []api.JobSpec {
	var specs []api.JobSpec
	for d := 0; d < 4; d++ {
		// 0.02 is the smallest scale whose placement still fits the die.
		p := gen.AES65().Scaled(0.02)
		p.Name = fmt.Sprintf("soak-%d", d)
		p.Seed = int64(700001 + d)
		for _, mode := range []string{api.ModeQP, api.ModeQCP} {
			for _, delta := range []float64{2, 2.5} {
				pp := p
				specs = append(specs, api.JobSpec{Preset: &pp, Mode: mode, Delta: delta})
			}
		}
	}
	return specs
}

// repoGoroutines returns the stacks of goroutines still executing this
// module's code (the test's own goroutine excluded).  The stdlib's
// HTTP keep-alive machinery is deliberately out of scope: the leak
// contract covers the server and the solver pipeline.
func repoGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for i, s := range strings.Split(string(buf), "\n\n") {
		if i == 0 {
			continue // the calling goroutine
		}
		if strings.Contains(s, "repro/internal") {
			leaked = append(leaked, s)
		}
	}
	return leaked
}

// waitNoRepoGoroutines polls until every pipeline goroutine has exited.
func waitNoRepoGoroutines(t *testing.T, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		g := repoGoroutines()
		if len(g) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) leaked after shutdown:\n%s", len(g), strings.Join(g, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeQueueBound pins the admission contract the soak relies on:
// 429 if and only if the queue is above MaxQueue.  With the single
// running slot blocked, exactly MaxQueue distinct specs queue up, the
// next is rejected, and a mid-queue DELETE immediately opens the slot
// for a fresh submission.
func TestServeQueueBound(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxRunning: 1, MaxQueue: 2})
	release := holdKey(srv, "design/"+testSpec().DesignKey())
	defer release()

	submit := func(delta float64) (int, JobView) {
		spec := testSpec()
		spec.Delta = delta
		resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		var view JobView
		json.Unmarshal(body, &view)
		return resp.StatusCode, view
	}

	// Runner occupies the slot; it blocks inside the held design build.
	code, runner := submit(2)
	if code != http.StatusAccepted {
		t.Fatalf("runner: %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for runner.State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("runner stuck in %s", runner.State)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+runner.ID, &runner)
	}

	// Queue to capacity: both distinct specs are accepted.
	code, queuedA := submit(2.25)
	if code != http.StatusAccepted {
		t.Fatalf("fill 1: %d", code)
	}
	if code, _ = submit(2.5); code != http.StatusAccepted {
		t.Fatalf("fill 2: %d", code)
	}
	// One past capacity: rejected.
	if code, _ = submit(2.75); code != http.StatusTooManyRequests {
		t.Fatalf("overflow: %d, want 429", code)
	}
	// A mid-queue cancel frees capacity for the same spec immediately.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queuedA.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if code, _ = submit(2.75); code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d, want 202", code)
	}
}

// TestServeLoadSoak drives the server with thousands of mixed small
// specs from concurrent clients — duplicates for dedupe, invalid specs
// for the 400 path, mid-queue cancels — and audits the books at the
// end: every accepted job reaches a terminal state (none lost, none
// failed), rejects equal the client-observed 429s and 400s, and the
// artifact cache's demand- and supply-side counters agree
// (hits+misses == builds+reuses).  Shutdown must leave zero pipeline
// goroutines behind.
//
// Opt-in: skipped under -short (several seconds of real solves).
func TestServeLoadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("load soak is opt-in; run without -short")
	}
	srv, ts, metrics := newTestServer(t, Config{MaxRunning: 2, MaxQueue: 8, KeepJobs: 1 << 14})

	const clients = 6
	const perClient = 400 // 2400 submissions
	specs := soakSpecs()

	// Pressure phase: hold every design cache key so the first wave of
	// jobs blocks in the artifact build.  With 16 distinct specs against
	// 2 running slots + 8 queue slots the clients are guaranteed to see
	// in-flight dedupe AND queue-full 429s, and the canceler finds
	// queued jobs to kill — the paths a free-running drain (each solve
	// ~5 ms) would never enter.
	var releases []func()
	held := map[string]bool{}
	for _, spec := range specs {
		if key := "design/" + spec.DesignKey(); !held[key] {
			held[key] = true
			releases = append(releases, holdKey(srv, key))
		}
	}

	var (
		mu       sync.Mutex
		accepted = map[string]bool{}
		resp202  int64
		resp429  int64
		resp400  int64
		stop     = make(chan struct{})
	)

	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Every 97th submission is malformed: unknown modes must
				// 400 without consuming queue capacity.
				if (cl*perClient+i)%97 == 13 {
					b, _ := json.Marshal(api.JobSpec{Design: "AES-65", Mode: "qxp"})
					resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
					if err != nil {
						t.Errorf("client %d: %v", cl, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("invalid spec: %d, want 400", resp.StatusCode)
					}
					atomic.AddInt64(&resp400, 1)
					continue
				}
				spec := specs[(cl+i)%len(specs)]
				b, _ := json.Marshal(spec)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
				if err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var view JobView
					if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
						t.Errorf("client %d: bad 202 body %q: %v", cl, body, err)
						return
					}
					atomic.AddInt64(&resp202, 1)
					mu.Lock()
					accepted[view.ID] = true
					mu.Unlock()
				case http.StatusTooManyRequests:
					atomic.AddInt64(&resp429, 1)
					time.Sleep(2 * time.Millisecond) // back off, keep going
				default:
					t.Errorf("client %d: unexpected status %d: %s", cl, resp.StatusCode, body)
					return
				}
			}
		}(cl)
	}

	// Canceler: every few milliseconds, DELETE one currently-queued job.
	// It runs until the clients are done, so it gets its own done
	// channel — putting it in the clients' WaitGroup would deadlock
	// (stop closes only after that WaitGroup drains).
	var cancelsIssued int64
	cancelerDone := make(chan struct{})
	go func() {
		defer close(cancelerDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			var list []JobView
			getJSON(t, ts.URL+"/v1/jobs", &list)
			for i := len(list) - 1; i >= 0; i-- {
				if list[i].State == StateQueued {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+list[i].ID, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						atomic.AddInt64(&cancelsIssued, 1)
					}
					break
				}
			}
		}
	}()

	// Let the clients hammer the blocked server, then open the gates
	// and let the backlog drain at full speed.
	time.Sleep(500 * time.Millisecond)
	for _, release := range releases {
		release()
	}

	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	select {
	case <-wgDone:
	case <-time.After(5 * time.Minute):
		t.Fatal("soak did not finish in 5 minutes")
	}
	close(stop)
	<-cancelerDone

	// Drain: every accepted job must reach a terminal state.
	mu.Lock()
	ids := make([]string, 0, len(accepted))
	for id := range accepted {
		ids = append(ids, id)
	}
	mu.Unlock()
	for _, id := range ids {
		var view JobView
		getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait=120s", &view)
		if !view.State.Terminal() {
			t.Fatalf("job %s stuck in %s after drain", id, view.State)
		}
		if view.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, view.Error)
		}
	}

	c := metrics.Snapshot().Counters
	t.Logf("soak: %d accepted (%d unique), %d deduped, %d x429, %d x400, %d cancels issued; jobs done/canceled/failed = %d/%d/%d; cache h/m/b/r = %d/%d/%d/%d (evictions %d)",
		resp202, len(ids), c["serve/jobs_deduped"], resp429, resp400, cancelsIssued,
		c["serve/jobs_done"], c["serve/jobs_canceled"], c["serve/jobs_failed"],
		c["serve/cache_hits"], c["serve/cache_misses"], c["serve/cache_builds"], c["serve/cache_reuses"],
		c["serve/cache_evictions"])

	// No job lost: unique accepted ids == submissions counted by the
	// server == terminal outcomes.
	if got, want := c["serve/jobs_submitted"], int64(len(ids)); got != want {
		t.Errorf("serve/jobs_submitted = %d, want %d unique accepted jobs", got, want)
	}
	terminal := c["serve/jobs_done"] + c["serve/jobs_canceled"] + c["serve/jobs_failed"]
	if terminal != int64(len(ids)) {
		t.Errorf("terminal outcomes %d != accepted jobs %d (job lost)", terminal, len(ids))
	}
	if c["serve/jobs_failed"] != 0 {
		t.Errorf("%d jobs failed during soak", c["serve/jobs_failed"])
	}
	// Dedupe accounting: every extra 202 beyond the unique ids was a
	// dedupe hit, and the pressure phase guarantees there were some.
	if got, want := c["serve/jobs_deduped"], resp202-int64(len(ids)); got != want {
		t.Errorf("serve/jobs_deduped = %d, want %d", got, want)
	}
	if c["serve/jobs_deduped"] == 0 {
		t.Error("pressure phase produced no in-flight dedupes")
	}
	// Rejections: exactly the client-observed 429s and 400s, nothing
	// else — 429s happen only above MaxQueue, 400s only on invalid
	// specs, and neither consumes an id.  The held queue must have
	// overflowed at least once (16 distinct specs vs 10 slots).
	if got, want := c["serve/jobs_rejected"], resp429+resp400; got != want {
		t.Errorf("serve/jobs_rejected = %d, want %d (%d x429 + %d x400)", got, want, resp429, resp400)
	}
	if resp429 == 0 {
		t.Error("pressure phase produced no queue-full 429s")
	}
	if cancelsIssued == 0 {
		t.Error("canceler never found a queued job to DELETE")
	} else if c["serve/jobs_canceled"] == 0 {
		t.Errorf("issued %d mid-queue cancels but no job was recorded canceled", cancelsIssued)
	}
	// Cache accounting: the demand side (hits/misses) and the supply
	// side (builds/reuses) must agree request for request.
	if h, m, b, r := c["serve/cache_hits"], c["serve/cache_misses"], c["serve/cache_builds"], c["serve/cache_reuses"]; h+m != b+r {
		t.Errorf("cache counters inconsistent: hits %d + misses %d != builds %d + reuses %d", h, m, b, r)
	}

	// Clean shutdown: close the transport and the server, then require
	// every pipeline goroutine gone.
	ts.Close()
	srv.Close()
	waitNoRepoGoroutines(t, 30*time.Second)
}

// TestServeLoadSoakPanics is the soak with a panicking executor: every
// job of a fixed subset of the soak specs (the QCP ones at δ = 2.5, one
// per design) panics inside Server.exec, while concurrent clients keep
// submitting the whole mix.  Each panicking job must end failed with
// the panic value in its error and be counted once in
// serve/jobs_panicked and serve/jobs_failed; every other job must
// finish done, and shutdown must leave no pipeline goroutine behind.
//
// Opt-in like TestServeLoadSoak: skipped under -short.
func TestServeLoadSoakPanics(t *testing.T) {
	if testing.Short() {
		t.Skip("load soak is opt-in; run without -short")
	}
	srv, ts, metrics := newTestServer(t, Config{MaxRunning: 2, MaxQueue: 8, KeepJobs: 1 << 14})
	const panicMsg = "injected soak panic"
	panics := func(spec api.JobSpec) bool { return spec.Mode == api.ModeQCP && spec.Delta == 2.5 }
	var injected atomic.Int64
	srv.exec = func(ctx context.Context, art api.Artifacts, spec api.JobSpec) (*api.JobResult, error) {
		if panics(spec) {
			injected.Add(1)
			panic(panicMsg)
		}
		return executeJob(ctx, art, spec)
	}

	const clients = 4
	const perClient = 100
	specs := soakSpecs()
	var (
		mu       sync.Mutex
		accepted = map[string]bool{} // job id → its spec panics
	)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				spec := specs[(cl*7+i)%len(specs)]
				b, _ := json.Marshal(spec)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
				if err != nil {
					t.Errorf("client %d: %v", cl, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					var view JobView
					if err := json.Unmarshal(body, &view); err != nil || view.ID == "" {
						t.Errorf("client %d: bad 202 body %q: %v", cl, body, err)
						return
					}
					mu.Lock()
					accepted[view.ID] = panics(spec)
					mu.Unlock()
				case http.StatusTooManyRequests:
					time.Sleep(2 * time.Millisecond)
				default:
					t.Errorf("client %d: unexpected status %d: %s", cl, resp.StatusCode, body)
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	wantPanicked, wantDone := int64(0), int64(0)
	for id, panicking := range accepted {
		var view JobView
		getJSON(t, ts.URL+"/v1/jobs/"+id+"?wait=120s", &view)
		switch {
		case panicking:
			wantPanicked++
			if view.State != StateFailed || !strings.Contains(view.Error, panicMsg) {
				t.Errorf("panicking job %s: state %s, error %q; want failed with the panic value", id, view.State, view.Error)
			}
		default:
			wantDone++
			if view.State != StateDone || view.Result == nil {
				t.Errorf("job %s: state %s, error %q; want done", id, view.State, view.Error)
			}
		}
	}
	if wantPanicked == 0 || wantDone == 0 {
		t.Fatalf("%d panicking and %d ordinary jobs accepted; the soak needs both", wantPanicked, wantDone)
	}

	// Close waits for every job goroutine, so the terminal counters are
	// final once it returns.
	ts.Close()
	srv.Close()
	c := metrics.Snapshot().Counters
	t.Logf("panic soak: %d jobs, %d panicked, %d done", len(accepted), c["serve/jobs_panicked"], c["serve/jobs_done"])
	if got := injected.Load(); got != wantPanicked {
		t.Errorf("executor panicked %d times, want once per panicking job (%d)", got, wantPanicked)
	}
	if c["serve/jobs_panicked"] != wantPanicked || c["serve/jobs_failed"] != wantPanicked {
		t.Errorf("serve/jobs_panicked = %d, serve/jobs_failed = %d; want both %d",
			c["serve/jobs_panicked"], c["serve/jobs_failed"], wantPanicked)
	}
	if c["serve/jobs_done"] != wantDone || c["serve/jobs_canceled"] != 0 {
		t.Errorf("serve/jobs_done = %d, serve/jobs_canceled = %d; want %d and 0",
			c["serve/jobs_done"], c["serve/jobs_canceled"], wantDone)
	}
	if got := c["serve/jobs_submitted"]; got != int64(len(accepted)) {
		t.Errorf("serve/jobs_submitted = %d, want %d accepted jobs", got, len(accepted))
	}
	waitNoRepoGoroutines(t, 30*time.Second)
}
