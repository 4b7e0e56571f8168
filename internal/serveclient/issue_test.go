package serveclient

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"exaresil/internal/serve"
)

// TestIssueOK: submit answers done immediately (a cache hit); Issue
// classifies ok without any polling or retry.
func TestIssueOK(t *testing.T) {
	var submits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			submits.Add(1)
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Cache: "hit"})
			return
		}
		http.NotFound(w, r)
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueOK || res.JobID != "j1" || res.Cache != "hit" {
		t.Fatalf("got %+v, want ok/j1/hit", res)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("server saw %d submits, want exactly 1", n)
	}
}

// TestIssuePollsToTerminal: an admitted job is polled through queued and
// running to done.
func TestIssuePollsToTerminal(t *testing.T) {
	states := []string{"queued", "running", "done"}
	var polls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued", Cache: "miss"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			i := polls.Add(1)
			if int(i) > len(states) {
				i = int64(len(states))
			}
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: states[i-1], Cache: "miss"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueOK || res.Cache != "miss" {
		t.Fatalf("got %+v, want ok/miss", res)
	}
	if res.Latency <= 0 {
		t.Errorf("latency %v, want positive", res.Latency)
	}
}

// TestIssueNeverRetries is the open-loop contract: whatever the server
// answers at submit, the server sees exactly one POST per Issue call.
func TestIssueNeverRetries(t *testing.T) {
	cases := []struct {
		name      string
		status    int
		wantClass string
	}{
		{"saturated", http.StatusTooManyRequests, IssueRejected},
		{"draining", http.StatusServiceUnavailable, IssueUnavailable},
		{"server error", http.StatusInternalServerError, IssueError},
		{"bad spec", http.StatusBadRequest, IssueError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var submits atomic.Int64
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				submits.Add(1)
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(tc.status)
			}))
			defer srv.Close()
			c := New(srv.URL, fastOpts())
			res := c.Issue(context.Background(), spec(t))
			if res.Class != tc.wantClass {
				t.Fatalf("HTTP %d classified %q, want %q", tc.status, res.Class, tc.wantClass)
			}
			if res.Err == nil {
				t.Error("non-ok classes must carry the underlying error")
			}
			if n := submits.Load(); n != 1 {
				t.Fatalf("server saw %d submits, want exactly 1 (Issue must not retry)", n)
			}
			if (tc.status == http.StatusTooManyRequests || tc.status == http.StatusServiceUnavailable) &&
				res.RetryAfter != time.Second {
				t.Errorf("RetryAfter = %v, want 1s from the header", res.RetryAfter)
			}
		})
	}
}

// TestIssueFailedJob: an admitted job that terminates failed classifies
// failed, not error.
func TestIssueFailedJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "failed", Error: "boom"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueFailed {
		t.Fatalf("got %q, want %q", res.Class, IssueFailed)
	}
}

// TestIssueVanishedJob: a 404 while polling (store eviction) is failed —
// the request's fate is known, just not its result.
func TestIssueVanishedJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSON(t, w, http.StatusAccepted, serve.JobView{ID: "j1", State: "queued"})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()
	c := New(srv.URL, fastOpts())
	res := c.Issue(context.Background(), spec(t))
	if res.Class != IssueFailed {
		t.Fatalf("got %q, want %q", res.Class, IssueFailed)
	}
}

// rotationHarness runs two live endpoints and returns which one served
// each submit, so tests can assert the rotation order.
type rotationHarness struct {
	order *[]string
	base  string
	close func()
}

func newRotationHarness(t *testing.T, statusA int) *rotationHarness {
	t.Helper()
	order := &[]string{}
	handler := func(name string, status int) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
				*order = append(*order, name)
				if status != http.StatusOK {
					w.WriteHeader(status)
					return
				}
				writeJSON(t, w, http.StatusOK, serve.JobView{ID: "j1", State: "done", Cache: "hit"})
				return
			}
			http.NotFound(w, r)
		}
	}
	a := httptest.NewServer(handler("a", statusA))
	b := httptest.NewServer(handler("b", http.StatusOK))
	return &rotationHarness{
		order: order,
		base:  a.URL + "," + b.URL,
		close: func() { a.Close(); b.Close() },
	}
}

// TestIssueRotatesOn503: endpoint a drains (503); the first Issue reports
// unavailable but rotates the preference, so the next Issue lands on b.
func TestIssueRotatesOn503(t *testing.T) {
	h := newRotationHarness(t, http.StatusServiceUnavailable)
	defer h.close()
	c := New(h.base, fastOpts())

	first := c.Issue(context.Background(), spec(t))
	if first.Class != IssueUnavailable {
		t.Fatalf("first issue: got %q, want %q", first.Class, IssueUnavailable)
	}
	second := c.Issue(context.Background(), spec(t))
	if second.Class != IssueOK {
		t.Fatalf("second issue: got %q, want %q", second.Class, IssueOK)
	}
	if got := *h.order; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("submit order %v, want [a b]", got)
	}
}

// TestIssueRotatesOnTransportError: endpoint a is shut down entirely
// (connection refused); the generator drifts to b without resending the
// failed request.
func TestIssueRotatesOnTransportError(t *testing.T) {
	h := newRotationHarness(t, http.StatusOK)
	defer h.close()
	// Stand up a dead endpoint in front of the live pair's second server.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close() // now nothing listens there

	c := New(deadURL+","+h.base, fastOpts())

	first := c.Issue(context.Background(), spec(t))
	if first.Class != IssueError {
		t.Fatalf("first issue: got %q (err %v), want %q", first.Class, first.Err, IssueError)
	}
	second := c.Issue(context.Background(), spec(t))
	if second.Class != IssueOK {
		t.Fatalf("second issue: got %q, want %q", second.Class, IssueOK)
	}
	if got := *h.order; len(got) != 1 || got[0] != "a" {
		t.Fatalf("submit order %v, want [a] (the dead endpoint never records)", got)
	}
}

// TestIssueNoRotationOn429: saturation is the queue's verdict, not the
// endpoint's — a 429 must NOT move the cursor, or a loaded mesh would
// thrash its cache affinity.
func TestIssueNoRotationOn429(t *testing.T) {
	h := newRotationHarness(t, http.StatusTooManyRequests)
	defer h.close()
	c := New(h.base, fastOpts())

	for i := 0; i < 3; i++ {
		res := c.Issue(context.Background(), spec(t))
		if res.Class != IssueRejected {
			t.Fatalf("issue %d: got %q, want %q", i, res.Class, IssueRejected)
		}
	}
	for i, name := range *h.order {
		if name != "a" {
			t.Fatalf("submit %d went to %q: 429 must not rotate endpoints", i, name)
		}
	}
}
