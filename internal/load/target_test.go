package load

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"exaresil/internal/serve"
	"exaresil/internal/serveclient"
)

// TestHTTPTargetTimesFromDue: an open loop times each arrival from when it
// was due, so an arrival issued late has its lag in its latency. An offset
// 2 s before the schedule starts makes the first arrival due 2 s before it
// can go out; the server answers at once (a cache hit), so the sample's
// latency is the lag itself.
func TestHTTPTargetTimesFromDue(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(serve.JobView{ID: "j1", State: "done", Cache: serve.CacheHit}); err != nil {
			t.Error(err)
		}
	}))
	defer srv.Close()
	target := &HTTPTarget{Client: serveclient.New(srv.URL, serveclient.Options{}), Base: srv.URL}
	spec := serve.Spec{Exhibit: "fig1"}
	samples, err := target.RunSchedule(context.Background(), []Arrival{{At: -2, Spec: spec}, {At: 0, Spec: spec}})
	if err != nil {
		t.Fatal(err)
	}
	late, prompt := samples[0], samples[1]
	if late.Class != OutcomeOK || prompt.Class != OutcomeOK {
		t.Fatalf("samples %+v, want two ok", samples)
	}
	if late.Latency < 2 {
		t.Errorf("arrival issued 2 s late reports latency %v s, want at least its 2 s lag", late.Latency)
	}
	if prompt.Latency >= 2 {
		t.Errorf("arrival issued on time reports latency %v s", prompt.Latency)
	}
}
