package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Request headers that carry the trace context from the client to the
// server middleware: the job's request id and the client span's id.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// spanDir is where a traced run writes its spans when it ends.
var spanDir = filepath.Join(".bench_build", "spans")

// span is one timed interval at a layer boundary. Spans of one job share
// Req; Parent is the id of the span that caused this one (0 for a root).
type span struct {
	Req    uint64    `json:"req"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder is
// tracing off: every method is a no-op.
type recorder struct {
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newID returns a fresh span or request id (0 when tracing is off).
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// routeOf names the API route of a request, the key of server spans.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/result"):
		return "result"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return "job"
	default:
		return "other"
	}
}

// traceHandler wraps the mesh's handler with a server span per request,
// keyed by route and parented to the client span named in the headers.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64) // absent: 0, an untraced request
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		rec.add(span{Req: req, ID: rec.newID(), Parent: parent, Name: "server." + routeOf(r), Start: start, End: end})
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered measures the union of the children's intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeSpans writes the spans as JSON lines, once, when the run ends.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
