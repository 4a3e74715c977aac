// HTTP transport over the job manager.  All bodies are JSON; requests
// and results use the dmopt-job/v1 schema from internal/api, metrics
// use the dmopt-bench/v1 schema from internal/obs — the same contracts
// the CLIs speak, so a job submitted over HTTP returns numbers
// bit-identical to cmd/dmopt run with the same spec.
//
//	POST   /v1/jobs        submit, returns 202 + job view
//	GET    /v1/jobs        list jobs in submission order
//	GET    /v1/jobs/{id}   poll one job; ?wait=5s long-polls completion
//	DELETE /v1/jobs/{id}   cancel a queued or running job
//	POST   /v1/solve       synchronous: runs the job inline, canceled
//	                       when the client disconnects
//	GET    /metrics        dmopt-bench/v1 report of the service counters
//	GET    /healthz        liveness
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// JobView is the wire representation of a job's current state.
type JobView struct {
	ID        string         `json:"id"`
	State     State          `json:"state"`
	Spec      api.JobSpec    `json:"spec"`
	Error     string         `json:"error,omitempty"`
	Result    *api.JobResult `json:"result,omitempty"`
	Submitted time.Time      `json:"submitted"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
}

// View snapshots a job under the server mutex.
func (s *Server) View(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:        j.ID,
		State:     j.state,
		Spec:      j.Spec,
		Error:     j.err,
		Result:    j.result,
		Submitted: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// reject answers a refused job request with 400 and counts it in
// serve/jobs_rejected, next to the refusals Submit counts itself.
func (s *Server) reject(w http.ResponseWriter, err error) {
	s.rec.Add("serve/jobs_rejected", 1)
	writeErr(w, http.StatusBadRequest, err)
}

// decodeSpec reads a job spec from the request body with a strict
// decoder; a malformed body or an unknown field is a rejected job.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (api.JobSpec, bool) {
	var spec api.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.reject(w, err)
		return spec, false
	}
	return spec, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	j, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeErr(w, http.StatusTooManyRequests, err)
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, s.View(j))
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = s.View(j)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		s.Wait(r.Context(), j, d)
	}
	writeJSON(w, http.StatusOK, s.View(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.Wait(r.Context(), j, 0)
	writeJSON(w, http.StatusOK, s.View(j))
}

// handleSolve runs the job synchronously inside the request, sharing
// the artifact cache and the running-slot semaphore with async jobs.
// The job context is the request context: a client disconnect cancels
// the solve at the next cancellation point.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	spec, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	spec = s.clampWorkers(spec.Normalized())
	if err := spec.Validate(); err != nil {
		s.reject(w, err)
		return
	}
	// The job context follows the request (client disconnect cancels
	// the solve) and additionally the server's base context, so
	// shutdown aborts in-flight synchronous solves too.
	ctx, cancel := context.WithCancel(obs.With(r.Context(), s.rec))
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		writeErr(w, http.StatusServiceUnavailable, ctx.Err())
		return
	}
	s.rec.Add("serve/jobs_submitted", 1)
	res, err := s.execute(ctx, spec)
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.rec.Add("serve/jobs_canceled", 1)
		writeErr(w, statusClientClosedRequest, err)
	case err != nil:
		s.rec.Add("serve/jobs_failed", 1)
		writeErr(w, http.StatusInternalServerError, err)
	default:
		s.rec.Add("serve/jobs_done", 1)
		writeJSON(w, http.StatusOK, res)
	}
}

// statusClientClosedRequest is the de-facto code for "client went away"
// (nginx's 499); net/http won't deliver it anywhere, but it keeps logs
// honest when the write still succeeds.
const statusClientClosedRequest = 499

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.rec.Report("dmopt-serve", 0, 0, s.cfg.JobWorkers, s.Uptime())
	writeJSON(w, http.StatusOK, rep)
}
