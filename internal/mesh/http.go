package mesh

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"exaresil/internal/experiments"
	"exaresil/internal/serve"
)

// The mesh speaks the same /v1 surface as a single exaserve process, so
// serveclient and the exaload scenarios work against either unchanged;
// /healthz and the extra GET /v1/mesh expose fleet state instead of
// single-node state.

// routes mounts the API.
func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	c.mux.Handle("POST /v1/jobs", http.HandlerFunc(c.handleSubmit))
	c.mux.Handle("GET /v1/jobs/{id}", http.HandlerFunc(c.handleJob))
	c.mux.Handle("DELETE /v1/jobs/{id}", http.HandlerFunc(c.handleCancel))
	c.mux.Handle("GET /v1/jobs/{id}/result", http.HandlerFunc(c.handleResult))
	c.mux.Handle("GET /v1/jobs/{id}/table", http.HandlerFunc(c.handleTable))
	c.mux.Handle("GET /v1/exhibits", http.HandlerFunc(c.handleExhibits))
	c.mux.Handle("GET /v1/mesh", http.HandlerFunc(c.handleMesh))
	c.mux.Handle("GET /metrics", http.HandlerFunc(c.handleMetrics))
	c.mux.Handle("GET /healthz", http.HandlerFunc(c.handleMesh))
}

// Handler is the mesh's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// writeJSON renders one response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit runs the admission → routing → replica pipeline over one
// spec.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := serve.ParseSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := c.Submit(spec)
	var rejected *AdmissionRejectedError
	switch {
	case errors.As(err, &rejected):
		secs := int(rejected.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1 // same floor as the replicas' Retry-After
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeError(w, http.StatusTooManyRequests, "admission rejected (%s policy); retry later", c.cfg.Admission.Name())
		return
	case errors.Is(err, serve.ErrSaturated):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", c.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "every live replica is saturated; retry later")
		return
	case errors.Is(err, serve.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "mesh is draining")
		return
	case errors.Is(err, ErrNoLiveReplicas):
		writeError(w, http.StatusServiceUnavailable, "no live replicas")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+view.ID)
	code := http.StatusAccepted
	if view.Cache == serve.CacheHit {
		code = http.StatusOK
	}
	writeJSON(w, code, view)
}

// handleJob polls one (possibly forwarded) job.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	view, ok := c.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleCancel terminates one job.
func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, err := c.CancelJob(r.PathValue("id"))
	var conflict *serve.StateConflictError
	switch {
	case errors.Is(err, serve.ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job is already %s", conflict.State)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleResult serves a done job's CSV bytes.
func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	res, view, err := c.JobResult(r.PathValue("id"))
	var conflict *serve.StateConflictError
	switch {
	case errors.Is(err, serve.ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job is %s, not done", view.State)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("X-Exaresil-Digest", res.Digest)
	_, _ = w.Write(res.CSV)
}

// handleTable serves a done job's rendered ASCII table.
func (c *Coordinator) handleTable(w http.ResponseWriter, r *http.Request) {
	res, view, err := c.JobResult(r.PathValue("id"))
	var conflict *serve.StateConflictError
	switch {
	case errors.Is(err, serve.ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job is %s, not done", view.State)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, res.Text)
}

// exhibitInfo is one row of GET /v1/exhibits.
type exhibitInfo struct {
	Name  string `json:"name"`
	Group string `json:"group"`
}

// handleExhibits lists the runnable exhibit names.
func (c *Coordinator) handleExhibits(w http.ResponseWriter, r *http.Request) {
	var out []exhibitInfo
	for _, e := range experiments.Exhibits() {
		out = append(out, exhibitInfo{Name: e.Name, Group: e.Group})
	}
	writeJSON(w, http.StatusOK, struct {
		Exhibits []exhibitInfo `json:"exhibits"`
	}{out})
}

// handleMesh reports fleet membership and failover totals.
func (c *Coordinator) handleMesh(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.MeshView())
}

// handleMetrics merges the coordinator's families with every replica's,
// tagging replica series with replica="<idx>". Dead slots still expose
// their last registry (counters survive replica lives — the registry is
// per-slot, not per-generation).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if c.cfg.Obs == nil {
		writeError(w, http.StatusNotFound, "metrics are disabled (no registry configured)")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := c.cfg.Obs.WriteProm(w); err != nil {
		return
	}
	// Replica registries are per-slot and immutable after New (revival
	// reuses them), so no membership lock is needed here.
	for _, rep := range c.replicas {
		if rep.reg == nil {
			continue
		}
		if err := writeReplicaProm(w, rep.idx, rep.reg.Snapshot()); err != nil {
			return
		}
	}
}
