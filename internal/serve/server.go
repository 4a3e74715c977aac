// Package serve is the long-running optimization service behind
// cmd/dmopt-serve: a job manager that executes dmopt-job/v1 specs
// (internal/api) over the staged compile→solve→signoff pipeline, with
// admission control, per-job worker budgets and graceful cancellation
// via the ctx-first core entry points.  Jobs resolve their
// design/golden/model/compile stages through api.Prepare with a
// byte-budget api.Cache, so the artifact cache survives millions of
// distinct requests.
//
// Job lifecycle: queued → running → done | failed | canceled.  A job
// is admitted when a running slot (Config.MaxRunning) frees up; the
// queue beyond the running set is bounded by Config.MaxQueue and
// overflow is rejected at submission (HTTP 429).  Cancellation — by
// DELETE, by client disconnect on the synchronous endpoint, or by
// server shutdown — cancels the job's context, which the solver
// observes between cut rounds / ADMM iterations / bisection probes.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/par"
)

// Config sizes the service.
type Config struct {
	// MaxRunning bounds concurrently executing jobs (0 = 1).
	MaxRunning int
	// MaxQueue bounds jobs waiting for a running slot (0 = 64).
	MaxQueue int
	// JobWorkers caps each job's parallel fan-out: a spec asking for
	// more (or for the default) is clamped to this budget, so one job
	// cannot monopolize the machine.  0 = GOMAXPROCS.
	JobWorkers int
	// CacheBytes is the artifact cache budget (0 = unbounded).
	CacheBytes int64
	// KeepJobs bounds the finished-job registry; the oldest finished
	// jobs are dropped past it (0 = 1024).
	KeepJobs int
}

// State is a job's lifecycle phase.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one submitted optimization; all mutable fields are guarded by
// the server mutex, and done closes exactly once on reaching a
// terminal state.
type Job struct {
	ID   string
	Spec api.JobSpec

	state     State
	err       string
	result    *api.JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	done   chan struct{}

	// dedupeKey is the canonical spec the in-flight index filed this job
	// under; cleared when the job reaches a terminal state.
	dedupeKey string
}

// ErrQueueFull rejects a submission when the admission queue is at
// capacity (HTTP 429 at the transport).
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrNotFound reports an unknown job id.
var ErrNotFound = errors.New("serve: no such job")

// Server is the job manager.  Construct with New, release with Close.
type Server struct {
	cfg   Config
	rec   *obs.Recorder
	cache *api.Cache
	start time.Time

	baseCtx   context.Context
	cancelAll context.CancelFunc
	sem       chan struct{}
	wg        sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	jobs     map[string]*Job
	order    []string        // submission order, for listing and registry GC
	inflight map[string]*Job // canonical spec → queued/running job
	queued   int
	seq      int

	// exec runs a job on its resolved artifacts (api.Execute outside
	// tests).
	exec func(context.Context, api.Artifacts, api.JobSpec) (*api.JobResult, error)
}

// executeJob is the production executor: the shared api contract.
func executeJob(ctx context.Context, art api.Artifacts, spec api.JobSpec) (*api.JobResult, error) {
	res, _, err := api.Execute(ctx, art, spec)
	return res, err
}

// New returns a started server.  The Recorder accumulates pipeline and
// service counters for the /metrics endpoint; it must not be nil.
func New(cfg Config, rec *obs.Recorder) *Server {
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 1
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.KeepJobs <= 0 {
		cfg.KeepJobs = 1024
	}
	ctx, cancel := context.WithCancel(obs.With(context.Background(), rec))
	return &Server{
		cfg:       cfg,
		rec:       rec,
		cache:     api.NewCache(rec, cfg.CacheBytes),
		start:     time.Now(),
		baseCtx:   ctx,
		cancelAll: cancel,
		sem:       make(chan struct{}, cfg.MaxRunning),
		jobs:      map[string]*Job{},
		inflight:  map[string]*Job{},
		exec:      executeJob,
	}
}

// Close cancels every in-flight job and waits for the workers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cancelAll()
	s.wg.Wait()
}

// Recorder exposes the server-lifetime metrics recorder.
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Uptime reports time since construction (the /metrics wall clock).
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// clampWorkers applies the per-job worker budget to a spec.
func (s *Server) clampWorkers(spec api.JobSpec) api.JobSpec {
	budget := par.Workers(s.cfg.JobWorkers)
	if w := par.Workers(spec.Workers); w > budget {
		spec.Workers = budget
	} else {
		spec.Workers = w
	}
	return spec
}

// Submit validates, admits and enqueues a job, returning immediately
// with its id.  The job runs as soon as a running slot frees up.
// Identical in-flight specs are deduplicated: a submission whose
// canonical form (post-normalize, post-clamp) matches a queued or
// running job returns that job instead of starting a second execution,
// so every concurrent submitter shares one run and all receive its
// result.  Finished jobs never dedupe — resubmitting a completed spec
// runs it again.
func (s *Server) Submit(spec api.JobSpec) (*Job, error) {
	spec = s.clampWorkers(spec.Normalized())
	if err := spec.Validate(); err != nil {
		s.rec.Add("serve/jobs_rejected", 1)
		return nil, err
	}
	key := spec.MarshalCanonical()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("serve: server is shutting down")
	}
	if j := s.inflight[key]; j != nil {
		s.mu.Unlock()
		s.rec.Add("serve/jobs_deduped", 1)
		return j, nil
	}
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.rec.Add("serve/jobs_rejected", 1)
		return nil, ErrQueueFull
	}
	s.seq++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:        fmt.Sprintf("job-%06d", s.seq),
		Spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
		cancel:    cancel,
		done:      make(chan struct{}),
		dedupeKey: key,
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.inflight[key] = j
	s.queued++
	s.rec.Set("serve/queue_depth", float64(s.queued))
	// The Add must happen under the mutex that guards closed: Close sets
	// closed and only then waits, so a submission past the closed check
	// is always counted before Close's wg.Wait can observe zero.
	s.wg.Add(1)
	s.mu.Unlock()

	s.rec.Add("serve/jobs_submitted", 1)
	go s.run(ctx, j)
	return j, nil
}

// run takes the job through admission, execution and completion.
func (s *Server) run(ctx context.Context, j *Job) {
	defer s.wg.Done()
	defer j.cancel()
	// Admission: wait for a running slot, or for cancellation while
	// still queued.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.finish(j, nil, ctx.Err())
		return
	}
	defer func() { <-s.sem }()
	if ctx.Err() != nil {
		s.finish(j, nil, ctx.Err())
		return
	}
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.queued--
	s.rec.Set("serve/queue_depth", float64(s.queued))
	s.mu.Unlock()

	res, err := s.execute(ctx, j.Spec)
	s.finish(j, res, err)
}

// execute resolves the staged artifacts through the server's cache and
// runs the solve.  dosePl jobs mutate cell positions in place, so they
// run on a private copy of the placement: the cached design — which
// concurrent jobs on the same design read through golden/compile
// rebuilds and solve-stage signoff — is never written after it is
// built.
//
// A panic fails only its own job.  One raised on this goroutine is
// recovered here; one raised on a fan-out goroutine arrives as par.Do's
// error for that item.  Either way the job fails with the panic value
// in its error, the panicking stack goes to stderr, and
// serve/jobs_panicked counts the job.
func (s *Server) execute(ctx context.Context, spec api.JobSpec) (res *api.JobResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("serve: job panicked: %v", p)
			s.jobPanicked(err, debug.Stack())
			return
		}
		var pe interface{ PanicStack() []byte }
		if errors.As(err, &pe) {
			s.jobPanicked(err, pe.PanicStack())
		}
	}()
	start := time.Now()
	art, err := api.Prepare(ctx, spec, s.cache)
	if err != nil {
		return nil, err
	}
	if spec.DosePl {
		art = art.WithPrivatePlacement()
	}
	res, err = s.exec(ctx, art, spec)
	if err != nil {
		return nil, err
	}
	s.rec.Observe("serve/job_wall", time.Since(start))
	return res, nil
}

// jobPanicked reports a job that failed on a panic.
func (s *Server) jobPanicked(err error, stack []byte) {
	s.rec.Add("serve/jobs_panicked", 1)
	fmt.Fprintf(os.Stderr, "%v\n%s", err, stack)
}

// finish records the job's terminal state.
func (s *Server) finish(j *Job, res *api.JobResult, err error) {
	s.mu.Lock()
	if j.state == StateQueued {
		s.queued--
		s.rec.Set("serve/queue_depth", float64(s.queued))
	}
	if s.inflight[j.dedupeKey] == j {
		delete(s.inflight, j.dedupeKey)
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.err = err.Error()
	default:
		j.state = StateFailed
		j.err = err.Error()
	}
	state := j.state
	close(j.done)
	s.gcLocked()
	s.mu.Unlock()
	switch state {
	case StateDone:
		s.rec.Add("serve/jobs_done", 1)
	case StateCanceled:
		s.rec.Add("serve/jobs_canceled", 1)
	default:
		s.rec.Add("serve/jobs_failed", 1)
	}
}

// gcLocked drops the oldest finished jobs past the registry bound.
// Caller holds s.mu.
func (s *Server) gcLocked() {
	excess := len(s.order) - s.cfg.KeepJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && j.state.Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get returns a job by id.
func (s *Server) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return j, nil
}

// Cancel requests cancellation of a queued or running job.  Canceling
// a finished job is a no-op that returns the job.
func (s *Server) Cancel(id string) (*Job, error) {
	j, err := s.Get(id)
	if err != nil {
		return nil, err
	}
	j.cancel()
	return j, nil
}

// Wait blocks until the job reaches a terminal state, the timeout
// elapses, or ctx is done; it always returns the job's current view.
func (s *Server) Wait(ctx context.Context, j *Job, timeout time.Duration) {
	if timeout <= 0 {
		select {
		case <-j.done:
		case <-ctx.Done():
		}
		return
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-j.done:
	case <-t.C:
	case <-ctx.Done():
	}
}

// Jobs lists the registry in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			out = append(out, j)
		}
	}
	return out
}
