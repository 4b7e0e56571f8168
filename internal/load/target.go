package load

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"exaresil/internal/serveclient"
)

// Sample is one arrival's observed outcome.
type Sample struct {
	// Class is OutcomeOK, OutcomeRejected, or OutcomeError.
	Class string
	// Cache is the server's cache disposition when the request completed
	// (hit, miss, joined).
	Cache string
	// Latency runs from the arrival's due time to its terminal state, in
	// seconds (virtual for the in-process target, wall-clock for HTTP), so
	// an arrival issued late carries its lag. Zero for rejects.
	Latency float64
}

// Counters is the cumulative server-side view a target exposes — the
// cache skew evidence the analyzer differences per sweep step. The
// in-process target reads its obs registry directly; the HTTP target
// scrapes GET /metrics.
type Counters struct {
	CacheHits   uint64
	CacheJoined uint64
	CacheMisses uint64
	Rejected    uint64
}

// Target serves one arrival schedule and reports a sample per arrival, in
// arrival order, once every arrival has answered; Counters reports the
// cumulative server-side counters (before, between, or after schedules).
type Target interface {
	RunSchedule(ctx context.Context, arrivals []Arrival) ([]Sample, error)
	Counters() (Counters, error)
}

// HTTPTarget drives a live exaserve or mesh over HTTP: open-loop
// wall-clock pacing, one goroutine per in-flight arrival, and /metrics
// scraping for the cache counters.
type HTTPTarget struct {
	// Client issues the requests (serveclient.New against one or more
	// endpoints).
	Client *serveclient.Client
	// Base is the metrics endpoint's base URL (the first client endpoint
	// works for meshes too: the coordinator merges replica registries).
	Base string
	// Speed compresses time: arrival offsets are divided by Speed, so 2
	// replays a trace twice as fast (default 1).
	Speed float64
	// HTTP fetches /metrics (default http.DefaultClient).
	HTTP *http.Client
}

// RunSchedule issues the arrivals open-loop: each fires at its scheduled
// offset whether or not earlier ones answered, and its latency runs from
// that due time, as Inproc's does. It returns one sample per arrival, in
// arrival order.
func (t *HTTPTarget) RunSchedule(ctx context.Context, arrivals []Arrival) ([]Sample, error) {
	speed := t.Speed
	if speed <= 0 {
		speed = 1
	}
	samples := make([]Sample, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(time.Duration(a.At / speed * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return nil, ctx.Err()
			}
		}
		if ctx.Err() != nil {
			wg.Wait()
			return nil, ctx.Err()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := t.Client.Issue(ctx, a.Spec)
			s := Sample{Latency: time.Since(due).Seconds(), Cache: out.Cache}
			switch out.Class {
			case serveclient.IssueOK:
				s.Class = OutcomeOK
			case serveclient.IssueRejected:
				s.Class = OutcomeRejected
				s.Latency = 0
			default:
				s.Class = OutcomeError
			}
			samples[i] = s
		}()
	}
	wg.Wait()
	return samples, ctx.Err()
}

// Counters scrapes GET /metrics and sums the cache and rejection counters
// across replica labels.
func (t *HTTPTarget) Counters() (Counters, error) {
	m, err := Scrape(t.HTTP, t.Base)
	if err != nil {
		return Counters{}, err
	}
	const cache = "exaresil_serve_cache_requests_total"
	return Counters{
		CacheHits:   m[cache+`{outcome="hit"}`],
		CacheJoined: m[cache+`{outcome="joined"}`],
		CacheMisses: m[cache+`{outcome="miss"}`],
		Rejected:    m["exaresil_serve_queue_rejections_total"],
	}, nil
}

// Scrape fetches base's GET /metrics with hc (nil means
// http.DefaultClient) and sums it with ReadMetrics.
func Scrape(hc *http.Client, base string) (map[string]uint64, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: HTTP %d", resp.StatusCode)
	}
	m, err := ReadMetrics(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	return m, nil
}

// ReadMetrics sums a Prometheus text-format exposition (a GET /metrics
// body): each series name maps to the sum of its samples, and each
// name{key="value"} to the sum of the samples carrying that label.
// Comments are skipped; unparsable, negative or NaN samples count zero,
// and a sample or a sum past the largest uint64 saturates there.
func ReadMetrics(r io.Reader) (map[string]uint64, error) {
	m := map[string]uint64{}
	add := func(key string, v uint64) {
		if sum := m[key] + v; sum >= v {
			m[key] = sum
		} else {
			m[key] = math.MaxUint64
		}
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if line := sc.Text(); line != "" && line[0] != '#' {
			name, labels, v := parseSeries(line)
			add(name, v)
			for k, lv := range labels {
				add(fmt.Sprintf("%s{%s=%q}", name, k, lv), v)
			}
		}
	}
	return m, sc.Err()
}

// parseSeries splits one sample line into its name, labels and value.
func parseSeries(line string) (string, map[string]string, uint64) {
	name, labels, rest := "", map[string]string{}, line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", labels, 0
		}
		name = line[:i]
		for _, kv := range strings.Split(line[i+1:j], ",") {
			k, v, ok := strings.Cut(kv, "=")
			if ok {
				labels[strings.TrimSpace(k)] = strings.Trim(strings.TrimSpace(v), `"`)
			}
		}
		rest = line[j+1:]
	} else if i := strings.IndexByte(line, ' '); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	switch {
	case err != nil || !(f >= 0): // unparsable, negative or NaN
		return name, labels, 0
	case f >= math.MaxUint64: // rounds to 2^64, one past the largest uint64
		return name, labels, math.MaxUint64
	}
	return name, labels, uint64(f)
}
