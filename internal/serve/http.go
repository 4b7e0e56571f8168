package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/obs"
)

// Backend is what the /v1 job routes drive: a single Server, or the mesh
// coordinator in front of a fleet of them. Both surfaces mount the same
// routes (MountJobRoutes), so they share one codec — one spec decoder, one
// error-to-status mapping, one set of headers. The methods follow the
// Server's core API; RetryAfterSeconds paces an ErrSaturated 429.
type Backend interface {
	Submit(Spec) (JobView, error)
	Job(id string) (JobView, bool)
	CancelJob(id string) (JobView, error)
	JobResult(id string) (*Result, JobView, error)
	RetryAfterSeconds() int
}

// ErrUnavailable: nothing behind the API can take work right now (the mesh
// has no live replica). The job routes answer it with 503.
var ErrUnavailable = errors.New("serve: no live replica")

// RejectedError is a refusal by an admission stage in front of the pool
// (the mesh's fleet-level policy). The job routes answer it with 429 and a
// Retry-After of Wait rounded up to whole seconds, at least one, so a
// client that obeys it never arrives before the stage could admit it.
type RejectedError struct {
	Policy string        // the admission policy's name
	Wait   time.Duration // how long until the policy could admit
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("serve: admission rejected (%s policy); retry after %s", e.Policy, e.Wait)
}

// MountJobRoutes mounts the /v1 job API of b on mux. wrap, when non-nil,
// wraps each route's handler under its route label (the Server's request
// metrics); nil mounts the bare handlers.
func MountJobRoutes(mux *http.ServeMux, b Backend, wrap func(route string, h http.HandlerFunc) http.Handler) {
	if wrap == nil {
		wrap = func(_ string, h http.HandlerFunc) http.Handler { return h }
	}
	api := jobAPI{b}
	mux.Handle("POST /v1/jobs", wrap("submit", api.submit))
	mux.Handle("GET /v1/jobs/{id}", wrap("job", api.job))
	mux.Handle("DELETE /v1/jobs/{id}", wrap("cancel", api.cancel))
	mux.Handle("GET /v1/jobs/{id}/result", wrap("result", api.result))
	mux.Handle("GET /v1/jobs/{id}/table", wrap("table", api.table))
	mux.Handle("GET /v1/exhibits", wrap("exhibits", handleExhibits))
}

// routes mounts the API: the job routes plus this server's /metrics and
// /healthz, every route instrumented.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	MountJobRoutes(s.mux, s, s.instrument)
	s.mux.Handle("GET /metrics", s.instrument("metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteMetrics(w, obs.Source{Reg: s.cfg.Obs})
	}))
	s.mux.Handle("GET /healthz", s.instrument("healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Health())
	}))
}

// statusRecorder captures the response code for the request metrics.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the request counter and latency
// histogram for one route label.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.m.Request(route, rec.code, time.Since(start).Seconds())
	})
}

// WriteJSON renders one response body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
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
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// WriteMetrics answers GET /metrics with the merged Prometheus exposition
// of srcs, or 404 when no source has a registry (metrics disabled).
func WriteMetrics(w http.ResponseWriter, srcs ...obs.Source) {
	for _, src := range srcs {
		if src.Reg != nil {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = obs.WriteMerged(w, srcs...)
			return
		}
	}
	writeError(w, http.StatusNotFound, "metrics are disabled (no registry configured)")
}

// jobAPI is the /v1 job codec over one Backend.
type jobAPI struct{ b Backend }

// submit admits one spec: 200 for a cache hit, 202 for a join or a fresh
// flight, 429 or 503 under pressure.
func (a jobAPI) submit(w http.ResponseWriter, r *http.Request) {
	spec, err := ParseSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	view, err := a.b.Submit(spec)
	var rejected *RejectedError
	switch {
	case err == nil:
		w.Header().Set("Location", "/v1/jobs/"+view.ID)
		code := http.StatusAccepted
		if view.Cache == CacheHit {
			code = http.StatusOK
		}
		WriteJSON(w, code, view)
	case errors.As(err, &rejected):
		secs := max(1, int(math.Ceil(rejected.Wait.Seconds())))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(a.b.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "%v; retry later", err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrUnavailable):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// job is the poll endpoint.
func (a jobAPI) job(w http.ResponseWriter, r *http.Request) {
	view, ok := a.b.Job(r.PathValue("id"))
	if !ok {
		writeJobError(w, r.PathValue("id"), ErrNoSuchJob)
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// cancel terminates one job.
func (a jobAPI) cancel(w http.ResponseWriter, r *http.Request) {
	view, err := a.b.CancelJob(r.PathValue("id"))
	if err != nil {
		writeJobError(w, r.PathValue("id"), err)
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

// result serves the finished job's CSV bytes — byte-identical to
// `exasim -csv` output for the same spec.
func (a jobAPI) result(w http.ResponseWriter, r *http.Request) {
	res, _, err := a.b.JobResult(r.PathValue("id"))
	if err != nil {
		writeJobError(w, r.PathValue("id"), err)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("X-Exaresil-Digest", res.Digest)
	_, _ = w.Write(res.CSV)
}

// table serves the finished job's rendered ASCII table.
func (a jobAPI) table(w http.ResponseWriter, r *http.Request) {
	res, _, err := a.b.JobResult(r.PathValue("id"))
	if err != nil {
		writeJobError(w, r.PathValue("id"), err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprint(w, res.Text)
}

// writeJobError answers a refused job operation: 404 for an unknown id,
// 409 when the job's state forbids the operation.
func writeJobError(w http.ResponseWriter, id string, err error) {
	var conflict *StateConflictError
	switch {
	case errors.Is(err, ErrNoSuchJob):
		writeError(w, http.StatusNotFound, "no such job %q", id)
	case errors.As(err, &conflict):
		writeError(w, http.StatusConflict, "job %q is %s", id, conflict.State)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// exhibitInfo is one row of GET /v1/exhibits.
type exhibitInfo struct {
	Name  string `json:"name"`
	Group string `json:"group"`
}

// handleExhibits lists the runnable exhibit names from the shared
// registry.
func handleExhibits(w http.ResponseWriter, r *http.Request) {
	var out []exhibitInfo
	for _, e := range experiments.Exhibits() {
		out = append(out, exhibitInfo{Name: e.Name, Group: e.Group})
	}
	WriteJSON(w, http.StatusOK, struct {
		Exhibits []exhibitInfo `json:"exhibits"`
	}{out})
}
