package mesh

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"exaresil/internal/experiments"
	"exaresil/internal/serve"
)

// TestWireConformance: a lone server and a 2-replica mesh mount the same
// /v1 codec, so every request gets the same status and the same headers
// from both, and every refusal the same {"error": ...} body shape. The
// want column pins the statuses.
func TestWireConformance(t *testing.T) {
	release := make(chan struct{})
	// fig5 parks until cleanup, so its jobs stay unfinished and fill the
	// queues on demand; everything else finishes at once. Each surface's
	// runner reports the seed of every fig5 run it starts.
	runner := func(started chan<- uint64) func(context.Context, experiments.Config, serve.Spec) (*serve.Result, error) {
		return func(ctx context.Context, _ experiments.Config, s serve.Spec) (*serve.Result, error) {
			if s.Exhibit == "fig5" {
				started <- s.Seed
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return &serve.Result{CSV: []byte(s.Canonical() + "\n"), Text: s.Canonical(), Digest: s.Key()}, nil
		}
	}
	// 64 exceeds every start a surface can report (seeds 1 and 2, one run
	// per worker, then the queued runs after release), so no runner ever
	// blocks on its report.
	serverStarts, meshStarts := make(chan uint64, 64), make(chan uint64, 64)
	scfg := serve.Config{Workers: 1, QueueDepth: 2, Runner: runner(serverStarts)}
	single, err := serve.New(scfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { _ = single.Drain(context.Background()) })
	scfg.Runner = runner(meshStarts)
	c := newTestMesh(t, Config{Replicas: 2, Serve: scfg})
	t.Cleanup(func() { close(release) }) // runs before both drains

	type surface struct {
		name    string
		h       http.Handler
		b       serve.Backend
		workers int
		started <-chan uint64     // seeds of the fig5 runs its workers start
		ids     *strings.Replacer // {done}, {parked}, {canceled} → job ids
	}
	surfaces := []*surface{
		{name: "server", h: single.Handler(), b: single, workers: 1, started: serverStarts},
		{name: "mesh", h: c.Handler(), b: c, workers: 2, started: meshStarts},
	}
	submit := func(b serve.Backend, spec serve.Spec) string {
		t.Helper()
		view, err := b.Submit(spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		return view.ID
	}
	for _, s := range surfaces {
		done := submit(s.b, serve.Spec{Exhibit: "fig1"})
		if v := awaitJob(t, s.b, done); v.State != "done" {
			t.Fatalf("%s: fig1 job ended %s", s.name, v.State)
		}
		parked := submit(s.b, serve.Spec{Exhibit: "fig5", Seed: 1})
		canceled := submit(s.b, serve.Spec{Exhibit: "fig5", Seed: 2})
		if _, err := s.b.CancelJob(canceled); err != nil {
			t.Fatalf("%s: first cancel: %v", s.name, err)
		}
		s.ids = strings.NewReplacer("{done}", done, "{parked}", parked, "{canceled}", canceled)
	}
	// fill parks a fig5 run on every worker of the surface, then submits
	// parked specs until the backend reports saturation. Saturation alone
	// is not enough on the mesh: a worker still idle there would pop a
	// queued flight afterwards and free a slot.
	fill := func(s *surface) {
		seed := uint64(100)
		untilSaturated := func() {
			for ; seed < 164; seed++ {
				if _, err := s.b.Submit(serve.Spec{Exhibit: "fig5", Seed: seed}); errors.Is(err, serve.ErrSaturated) {
					return
				}
			}
			t.Fatal("64 parked submissions never saturated the queues")
		}
		// Saturation leaves every live queue full, so each idle worker
		// starts a parked run. The canceled job (seed 2) holds no worker.
		untilSaturated()
		for held := 0; held < s.workers; {
			if seed := <-s.started; seed != 2 {
				held++
			}
		}
		untilSaturated()
	}

	rows := []struct {
		name, method, path, body string
		fill                     bool
		want                     int
	}{
		{"valid spec", "POST", "/v1/jobs", `{"exhibit":"fig2"}`, false, http.StatusAccepted},
		{"cache hit", "POST", "/v1/jobs", `{"exhibit":"fig1"}`, false, http.StatusOK},
		{"unknown field", "POST", "/v1/jobs", `{"exhibit":"fig1","trails":5}`, false, http.StatusBadRequest},
		{"trailing data", "POST", "/v1/jobs", `{"exhibit":"fig1"}{"exhibit":"fig4"}`, false, http.StatusBadRequest},
		{"wrong-case key", "POST", "/v1/jobs", `{"EXHIBIT":"fig4"}`, false, http.StatusBadRequest},
		{"repeated key", "POST", "/v1/jobs", `{"exhibit":"fig1","Exhibit":"fig4"}`, false, http.StatusBadRequest},
		{"unknown id", "GET", "/v1/jobs/j404", "", false, http.StatusNotFound},
		{"cancel unknown id", "DELETE", "/v1/jobs/j404", "", false, http.StatusNotFound},
		{"result of unknown id", "GET", "/v1/jobs/j404/result", "", false, http.StatusNotFound},
		{"table of unknown id", "GET", "/v1/jobs/j404/table", "", false, http.StatusNotFound},
		{"poll", "GET", "/v1/jobs/{parked}", "", false, http.StatusOK},
		{"result of an unfinished job", "GET", "/v1/jobs/{parked}/result", "", false, http.StatusConflict},
		{"table of an unfinished job", "GET", "/v1/jobs/{parked}/table", "", false, http.StatusConflict},
		{"second cancel", "DELETE", "/v1/jobs/{canceled}", "", false, http.StatusConflict},
		{"result of a done job", "GET", "/v1/jobs/{done}/result", "", false, http.StatusOK},
		{"table of a done job", "GET", "/v1/jobs/{done}/table", "", false, http.StatusOK},
		{"exhibits", "GET", "/v1/exhibits", "", false, http.StatusOK},
		{"metrics without a registry", "GET", "/metrics", "", false, http.StatusNotFound},
		{"saturated", "POST", "/v1/jobs", `{"exhibit":"fig5","seed":99}`, true, http.StatusTooManyRequests},
	}
	for _, row := range rows {
		var sigs []string
		for _, s := range surfaces {
			if row.fill {
				fill(s)
			}
			rec := httptest.NewRecorder()
			s.h.ServeHTTP(rec, httptest.NewRequest(row.method, s.ids.Replace(row.path), strings.NewReader(row.body)))
			if rec.Code != row.want {
				t.Errorf("%s on the %s: HTTP %d, want %d: %s", row.name, s.name, rec.Code, row.want, rec.Body)
			}
			if rec.Code >= 400 {
				var body map[string]string
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body) != 1 || body["error"] == "" {
					t.Errorf("%s on the %s: body %s, want {\"error\": ...}", row.name, s.name, rec.Body)
				}
			}
			sig := strconv.Itoa(rec.Code) + " Content-Type=" + rec.Header().Get("Content-Type")
			for _, k := range []string{"Location", "X-Exaresil-Digest", "Retry-After"} {
				if rec.Header().Get(k) != "" {
					sig += " " + k
				}
			}
			sigs = append(sigs, sig)
		}
		if sigs[0] != sigs[1] {
			t.Errorf("%s: server answers %q, mesh %q", row.name, sigs[0], sigs[1])
		}
	}
}
