package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/par"
)

func testSpec() api.JobSpec {
	return api.JobSpec{Design: "AES-65", Scale: 0.1}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Recorder) {
	t.Helper()
	rec := obs.New()
	srv := New(cfg, rec)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, rec
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, b, err)
		}
	}
	return resp
}

// directRun solves a spec in-process the way cmd/dmopt does: an
// uncached Prepare on a fresh design, then Execute.
func directRun(t *testing.T, spec api.JobSpec) *api.JobResult {
	t.Helper()
	art, err := api.Prepare(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("direct prepare: %v", err)
	}
	res, _, err := api.Execute(context.Background(), art, spec)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	return res
}

// resultFingerprint strips the wall-time field, the only part of a
// JobResult allowed to differ between two runs of the same spec.
func resultFingerprint(t *testing.T, r *api.JobResult) string {
	t.Helper()
	c := *r
	c.RuntimeNS = 0
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// TestHTTPJobLifecycle: submit over HTTP, long-poll to completion, and
// require the result document to be bit-identical to the direct
// in-process executor (the cmd/dmopt path) — every float crosses JSON
// unrounded, so string equality of the fingerprints is bit equality.
func TestHTTPJobLifecycle(t *testing.T) {
	_, ts, rec := newTestServer(t, Config{MaxRunning: 1})

	resp, body := postJSON(t, ts.URL+"/v1/jobs", testSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.Unmarshal(body, &view); err != nil {
		t.Fatalf("submit body %q: %v", body, err)
	}
	if view.ID == "" || view.State.Terminal() {
		t.Fatalf("fresh job view: %+v", view)
	}

	getJSON(t, ts.URL+"/v1/jobs/"+view.ID+"?wait=120s", &view)
	if view.State != StateDone {
		t.Fatalf("job ended %s (%s)", view.State, view.Error)
	}
	if view.Result == nil || view.Started == nil || view.Finished == nil {
		t.Fatalf("done view incomplete: %+v", view)
	}

	ref := directRun(t, testSpec())
	if got, want := resultFingerprint(t, view.Result), resultFingerprint(t, ref); got != want {
		t.Fatalf("HTTP result differs from direct path:\n  http   %s\n  direct %s", got, want)
	}

	// A repeated submission is served from the artifact caches: the
	// compile memo hit is observable at /metrics, and the numbers stay
	// bit-identical.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", testSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var again JobView
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatalf("resubmit body: %v", err)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+again.ID+"?wait=120s", &again)
	if again.State != StateDone {
		t.Fatalf("cached job ended %s (%s)", again.State, again.Error)
	}
	if got, want := resultFingerprint(t, again.Result), resultFingerprint(t, ref); got != want {
		t.Fatalf("cached result differs:\n  cached %s\n  direct %s", got, want)
	}
	if hits := rec.Snapshot().Counters["core/compile_hits"]; hits < 1 {
		t.Fatalf("compile_hits = %d after resubmission, want >= 1", hits)
	}

	var rep obs.Report
	getJSON(t, ts.URL+"/metrics", &rep)
	if rep.Schema != obs.Schema {
		t.Fatalf("metrics schema %q, want %q", rep.Schema, obs.Schema)
	}
	if rep.Counters["core/compile_hits"] < 1 || rep.Counters["serve/jobs_done"] != 2 {
		t.Fatalf("metrics counters: %v", rep.Counters)
	}

	var list []JobView
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list) != 2 {
		t.Fatalf("list has %d jobs, want 2", len(list))
	}
}

// TestHTTPSyncSolve: the synchronous endpoint returns the same
// bit-identical document without a job handle.
func TestHTTPSyncSolve(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRunning: 1})
	resp, body := postJSON(t, ts.URL+"/v1/solve", testSpec())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	var res api.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("solve body: %v", err)
	}
	ref := directRun(t, testSpec())
	if got, want := resultFingerprint(t, &res), resultFingerprint(t, ref); got != want {
		t.Fatalf("sync result differs:\n  http   %s\n  direct %s", got, want)
	}
}

// TestHTTPErrors: unknown jobs 404, malformed and invalid specs 400,
// and so is a body with an unknown field (the decoder is strict).
func TestHTTPErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRunning: 1})
	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/jobs", api.JobSpec{Design: "DES-65"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", resp.StatusCode)
	}
	for _, body := range []string{`{"desing":`, `{"design":"AES-65","scale":0.05,"tiled":true}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed body %s: %d", body, resp.StatusCode)
		}
	}
	var ok map[string]string
	if resp := getJSON(t, ts.URL+"/healthz", &ok); resp.StatusCode != http.StatusOK || ok["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, ok)
	}
}

// TestHTTPRejectionsCounted: every 400 a job request earns is a
// rejected job in /metrics — a truncated body (the strict decoder), an
// invalid spec on both the asynchronous and the synchronous endpoint,
// and an inline preset past the preset bounds, refused before any
// generation — not only the ones Submit refuses.
func TestHTTPRejectionsCounted(t *testing.T) {
	_, ts, rec := newTestServer(t, Config{MaxRunning: 1})
	reqs := []struct{ path, body string }{
		{"/v1/solve", `{"design":`},
		{"/v1/jobs", `{"design":"DES-65"}`},
		{"/v1/solve", `{"design":"DES-65"}`},
		{"/v1/jobs", fmt.Sprintf(`{"preset":{"Name":"huge","Tech":"N65","Cells":%d,"ChipW":241,"ChipH":241,"Depth":34}}`, api.MaxPresetCells+1)},
	}
	for _, rq := range reqs {
		resp, err := http.Post(ts.URL+rq.path, "application/json", strings.NewReader(rq.body))
		if err != nil {
			t.Fatalf("POST %s: %v", rq.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s %s: %d, want 400", rq.path, rq.body, resp.StatusCode)
		}
	}
	if got := rec.Snapshot().Counters["serve/jobs_rejected"]; got != int64(len(reqs)) {
		t.Errorf("serve/jobs_rejected = %d, want %d", got, len(reqs))
	}
}

// TestDosePlPrivatePlacement: dosePl jobs mutate cell positions, so
// the server runs them on a private placement copy
// (api.Artifacts.WithPrivatePlacement).  The cached design — which
// concurrent jobs on the same design read through golden/compile
// rebuilds and solve-stage signoff — must stay bit-identical across a
// dosePl job, and the job's numbers must still match the direct CLI
// path (which mutates its own fresh design in place).
func TestDosePlPrivatePlacement(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxRunning: 1})
	spec := testSpec()
	spec.DosePl = true

	resp, body := postJSON(t, ts.URL+"/v1/solve", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dosePl solve: %d %s", resp.StatusCode, body)
	}
	var res api.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("solve body: %v", err)
	}
	if res.DosePl == nil {
		t.Fatal("dosePl job returned no placement summary")
	}

	// The cached design must still hold the original (pre-dosePl)
	// coordinates: rebuild them from a fresh generation and compare.
	dv, hit, err := srv.cache.GetOrBuild(context.Background(), "design/"+spec.DesignKey(),
		func(context.Context) (any, int64, error) {
			return nil, 0, fmt.Errorf("cached design missing")
		})
	if err != nil || !hit {
		t.Fatalf("cached design lookup: hit=%v err=%v", hit, err)
	}
	cached := dv.(*gen.Design)
	p, err := spec.GenPreset()
	if err != nil {
		t.Fatalf("preset: %v", err)
	}
	fresh, err := gen.GenerateCtx(context.Background(), p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for i := range fresh.Pl.X {
		if math.Float64bits(cached.Pl.X[i]) != math.Float64bits(fresh.Pl.X[i]) ||
			math.Float64bits(cached.Pl.Y[i]) != math.Float64bits(fresh.Pl.Y[i]) ||
			math.Float64bits(cached.Pl.Width[i]) != math.Float64bits(fresh.Pl.Width[i]) {
			t.Fatalf("cached placement mutated at gate %d: (%v,%v,%v) != (%v,%v,%v)",
				i, cached.Pl.X[i], cached.Pl.Y[i], cached.Pl.Width[i],
				fresh.Pl.X[i], fresh.Pl.Y[i], fresh.Pl.Width[i])
		}
	}

	ref := directRun(t, spec)
	if got, want := resultFingerprint(t, &res), resultFingerprint(t, ref); got != want {
		t.Fatalf("dosePl result differs from direct path:\n  http   %s\n  direct %s", got, want)
	}
}

// TestDosePlConcurrentCompile reproduces the aliasing hazard the
// private placement copy removes: with two running slots, a dosePl job
// overlaps a same-design job whose compile stage rebuilds (distinct
// CompileOptions key) and therefore reads the cached placement.  Both
// must succeed, and under -race the overlap must be write-free.
func TestDosePlConcurrentCompile(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRunning: 2})
	dosePl := testSpec()
	dosePl.DosePl = true
	rebuild := testSpec()
	rebuild.Delta = 3 // distinct compile key → rebuild reads the shared placement

	var wg sync.WaitGroup
	for _, spec := range []api.JobSpec{dosePl, rebuild} {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Errorf("POST /v1/solve: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("solve: %d %s", resp.StatusCode, body)
			}
		}()
	}
	wg.Wait()
}

// holdKey occupies a cache key so any job needing it blocks inside the
// artifact stage until release is closed; the held build then reports
// a cancellation-wrapped error, which the cache must not retain, so
// the blocked job rebuilds under its own (possibly canceled) context.
func holdKey(srv *Server, key string) (release func()) {
	ch := make(chan struct{})
	started := make(chan struct{})
	go srv.cache.GetOrBuild(context.Background(), key, func(context.Context) (any, int64, error) {
		close(started)
		<-ch
		return nil, 0, fmt.Errorf("holder released: %w", context.Canceled)
	})
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

// TestHTTPAdmissionAndCancel: with one running slot and a one-deep
// queue, overflow is rejected with 429 and a queued job cancels
// deterministically through DELETE while the running job is untouched.
func TestHTTPAdmissionAndCancel(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxRunning: 1, MaxQueue: 1})
	release := holdKey(srv, "design/"+testSpec().DesignKey())
	defer release()

	// Job A: admitted, blocks inside the design stage on the held key.
	_, body := postJSON(t, ts.URL+"/v1/jobs", testSpec())
	var a JobView
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("submit A: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for a.State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job A stuck in %s", a.State)
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, ts.URL+"/v1/jobs/"+a.ID, &a)
	}

	// Job B fills the queue; job C overflows it.  Both must differ from
	// the in-flight specs already submitted — identical specs would be
	// deduplicated instead of queued.
	specB := testSpec()
	specB.Delta = 2.5
	resp, body := postJSON(t, ts.URL+"/v1/jobs", specB)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B: %d %s", resp.StatusCode, body)
	}
	var b JobView
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatalf("submit B: %v", err)
	}
	specC := testSpec()
	specC.Delta = 3
	resp, body = postJSON(t, ts.URL+"/v1/jobs", specC)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s", resp.StatusCode, body)
	}

	// DELETE the queued job: its admission select observes the cancel
	// without ever needing the running slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+b.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE B: %v", err)
	}
	dbody, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if err := json.Unmarshal(dbody, &b); err != nil {
		t.Fatalf("DELETE body %q: %v", dbody, err)
	}
	if b.State != StateCanceled {
		t.Fatalf("deleted job in state %s", b.State)
	}

	// Release the held key: job A rebuilds under its live context and
	// runs to completion, unaffected by B's cancellation.
	release()
	getJSON(t, ts.URL+"/v1/jobs/"+a.ID+"?wait=120s", &a)
	if a.State != StateDone {
		t.Fatalf("job A ended %s (%s)", a.State, a.Error)
	}
}

// TestSolveClientDisconnect: a client abandoning the synchronous
// endpoint cancels the in-flight solve; the server records the job as
// canceled, not failed, and stays healthy.
func TestSolveClientDisconnect(t *testing.T) {
	srv, ts, rec := newTestServer(t, Config{MaxRunning: 1})
	release := holdKey(srv, "design/"+testSpec().DesignKey())

	ctx, cancel := context.WithCancel(context.Background())
	spec, _ := json.Marshal(testSpec())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(spec))
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the solve is inside execute (holding the run slot),
	// then hang up.
	deadline := time.Now().Add(30 * time.Second)
	for len(srv.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never acquired the run slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("client request succeeded despite disconnect")
	}
	release()

	deadline = time.Now().Add(30 * time.Second)
	for rec.Snapshot().Counters["serve/jobs_canceled"] < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("job never recorded as canceled: %v", rec.Snapshot().Counters)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := rec.Snapshot().Counters["serve/jobs_failed"]; n != 0 {
		t.Fatalf("disconnect recorded as failure (%d)", n)
	}

	// The slot is released; the server still serves fresh work.
	resp := getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after disconnect: %d", resp.StatusCode)
	}
}

// TestHTTPJobDedupe: concurrent submissions of an identical spec share
// one execution — the second submitter receives the first job's id and
// both observe the same result — while a resubmission after completion
// starts a fresh job.
func TestHTTPJobDedupe(t *testing.T) {
	srv, ts, rec := newTestServer(t, Config{MaxRunning: 1})
	release := holdKey(srv, "design/"+testSpec().DesignKey())
	defer release()

	// Job A blocks inside the design stage on the held key, so it is
	// reliably in flight for the duplicate submission.
	_, body := postJSON(t, ts.URL+"/v1/jobs", testSpec())
	var a JobView
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("submit A: %v", err)
	}

	resp, body := postJSON(t, ts.URL+"/v1/jobs", testSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate submit: %d %s", resp.StatusCode, body)
	}
	var dup JobView
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatalf("duplicate submit body: %v", err)
	}
	if dup.ID != a.ID {
		t.Fatalf("duplicate submission got job %s, want shared job %s", dup.ID, a.ID)
	}
	if got := rec.Snapshot().Counters["serve/jobs_deduped"]; got != 1 {
		t.Fatalf("serve/jobs_deduped = %d, want 1", got)
	}

	// Both submitters poll the shared id and receive the one result.
	release()
	getJSON(t, ts.URL+"/v1/jobs/"+a.ID+"?wait=120s", &a)
	if a.State != StateDone {
		t.Fatalf("shared job ended %s (%s)", a.State, a.Error)
	}
	if a.Result == nil {
		t.Fatal("shared job has no result")
	}

	// The spec is no longer in flight: resubmitting runs a new job.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", testSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var fresh JobView
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatalf("resubmit body: %v", err)
	}
	if fresh.ID == a.ID {
		t.Fatalf("finished spec deduped to old job %s; want a fresh job", a.ID)
	}
	getJSON(t, ts.URL+"/v1/jobs/"+fresh.ID+"?wait=120s", &fresh)
	if fresh.State != StateDone {
		t.Fatalf("fresh job ended %s (%s)", fresh.State, fresh.Error)
	}
	if got, want := resultFingerprint(t, fresh.Result), resultFingerprint(t, a.Result); got != want {
		t.Fatalf("rerun result differs from shared result:\n  rerun  %s\n  shared %s", got, want)
	}
}

// TestHTTPWaferJob: wafer-mode jobs flow through the same cached
// Prepare/Execute path as qp/qcp jobs — the daemon runs a tiny
// 12-field consensus wafer, returns the per-field summary, and the
// document is bit-identical to the direct in-process run.
func TestHTTPWaferJob(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxRunning: 1})
	spec := api.JobSpec{Design: "AES-65", Scale: 0.05, Mode: api.ModeWafer,
		Wafer: &api.WaferSpec{FieldWmm: 58, FieldHmm: 58, CenterNm: -2, EdgeNm: 4}}

	resp, body := postJSON(t, ts.URL+"/v1/solve", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wafer solve: %d %s", resp.StatusCode, body)
	}
	var res api.JobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("solve body: %v", err)
	}
	w := res.Wafer
	if w == nil {
		t.Fatal("wafer job returned no wafer summary")
	}
	if w.Fields != 12 || len(w.PerField) != 12 {
		t.Fatalf("wafer summary has %d fields (%d detailed), want 12", w.Fields, len(w.PerField))
	}
	if !(w.CoupledSpreadPct < w.UncoupledSpreadPct && w.CoupledSpreadPct < w.UniformSpreadPct) {
		t.Fatalf("coupled spread %.4f%% not below baselines (uniform %.3f%%, uncoupled %.3f%%)",
			w.CoupledSpreadPct, w.UniformSpreadPct, w.UncoupledSpreadPct)
	}

	ref := directRun(t, spec)
	if got, want := resultFingerprint(t, &res), resultFingerprint(t, ref); got != want {
		t.Fatalf("wafer result differs from direct path:\n  http   %s\n  direct %s", got, want)
	}

	// Wafer knobs on a non-wafer job must be rejected at the door.
	bad := testSpec()
	bad.Wafer = &api.WaferSpec{}
	if resp, _ := postJSON(t, ts.URL+"/v1/jobs", bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wafer knobs on qp job: %d, want 400", resp.StatusCode)
	}
}

// TestJobPanicIsolated: a job whose executor panics ends failed with
// the panic value in its error and ticks serve/jobs_panicked, and the
// server keeps serving.  A panic on a fan-out goroutine — which no
// recover on the job's goroutine can see — fails its job the same way
// on the synchronous endpoint, through par.Do's item error.  The next
// job completes, and shutdown leaves no pipeline goroutine behind.
func TestJobPanicIsolated(t *testing.T) {
	rec := obs.New()
	srv := New(Config{MaxRunning: 1}, rec)
	ts := httptest.NewServer(srv.Handler())
	var calls atomic.Int32
	srv.exec = func(ctx context.Context, art api.Artifacts, spec api.JobSpec) (*api.JobResult, error) {
		switch calls.Add(1) {
		case 1:
			panic("injected executor panic")
		case 2:
			return nil, par.Do(ctx, 4, 2, func(i int) error {
				if i == 1 {
					panic("injected fan-out panic")
				}
				return nil
			})
		}
		return executeJob(ctx, art, spec)
	}
	panicked := func() int64 { return rec.Snapshot().Counters["serve/jobs_panicked"] }

	j, err := srv.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait(context.Background(), j, 0)
	if v := srv.View(j); v.State != StateFailed || !strings.Contains(v.Error, "injected executor panic") {
		t.Fatalf("panicking job: state %s, error %q; want failed with the panic value", v.State, v.Error)
	}
	if n := panicked(); n != 1 {
		t.Fatalf("serve/jobs_panicked = %d after one panicking job, want 1", n)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", testSpec())
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "injected fan-out panic") {
		t.Fatalf("fan-out panic: status %d, body %s; want 500 with the panic value", resp.StatusCode, body)
	}
	if n := panicked(); n != 2 {
		t.Fatalf("serve/jobs_panicked = %d after the fan-out panic, want 2", n)
	}

	j, err = srv.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait(context.Background(), j, 0)
	if v := srv.View(j); v.State != StateDone || v.Result == nil {
		t.Fatalf("job after the panics: state %s, error %q; want done", v.State, v.Error)
	}

	ts.Close()
	srv.Close()
	// Close waits for every job goroutine, so the terminal counters
	// (ticked after a job's done channel closes) are final here.
	if c := rec.Snapshot().Counters; c["serve/jobs_failed"] != 2 || c["serve/jobs_done"] != 1 {
		t.Fatalf("counters failed=%d done=%d, want 2 and 1", c["serve/jobs_failed"], c["serve/jobs_done"])
	}
	waitNoRepoGoroutines(t, 5*time.Second)
}
