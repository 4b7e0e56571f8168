package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"exaresil/internal/serve"
)

// client drives the fleet over HTTP. All load of a run goes through one
// client, whose transport opens at most conns connections; requests beyond
// that wait for a free connection, and the wait counts in their latency.
type client struct {
	base string
	hc   *http.Client
	poll time.Duration
	rec  *recorder
}

func newClient(base string, conns int, poll time.Duration, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}, poll: poll, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// job is one served request's outcome and timeline. All times come from
// one clock: the fleet runs in this process, so the server's JobView
// stamps and the client's readings are directly comparable.
type job struct {
	Spec  serve.Spec
	Cache string // the submit response's cache status: hit, joined or miss
	View  serve.JobView
	Polls int
	Bytes int
	Err   error

	Due       time.Time // when the arrival was scheduled
	Issued    time.Time // when the submit was handed to the transport
	Responded time.Time // when the submit response was decoded
	SeenDone  time.Time // when the client first saw the job done
	End       time.Time // when the result bytes were fetched and verified
}

func (j *job) latency() time.Duration { return j.End.Sub(j.Due) }

// do sends one request with the trace headers and returns the status and
// body, recording a client span named name.
func (c *client) do(method, path string, body []byte, req, parent uint64, name string) (int, http.Header, []byte, error) {
	id := c.rec.newID()
	start := time.Now()
	hr, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if c.rec != nil {
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.rec.add(span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: time.Now()})
	if err != nil {
		return 0, nil, nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return resp.StatusCode, resp.Header, data, nil
}

// run submits spec, polls until the job settles, fetches the result and
// checks its bytes against the digest the job reports. Latency runs from
// due, the arrival's scheduled time, not from when it was sent.
func (c *client) run(spec serve.Spec, due time.Time) job {
	j := job{Spec: spec, Due: due, Issued: time.Now()}
	req := c.rec.newID()
	root := c.rec.newID()
	defer func() {
		if j.Err == nil {
			c.rec.add(span{Req: req, ID: root, Name: "job", Start: j.Due, End: j.End})
			c.addStageSpans(req, root, j.View)
		}
	}()
	body, err := json.Marshal(spec)
	if err != nil {
		j.Err = err
		return j
	}
	code, _, data, err := c.do(http.MethodPost, "/v1/jobs", body, req, root, "client.submit")
	if err != nil {
		j.Err = fmt.Errorf("submit: %w", err)
		return j
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		j.Err = fmt.Errorf("submit: status %d: %s", code, bytes.TrimSpace(data))
		return j
	}
	if err := json.Unmarshal(data, &j.View); err != nil {
		j.Err = fmt.Errorf("submit: decode view: %w", err)
		return j
	}
	j.Responded = time.Now()
	j.Cache = j.View.Cache
	for !terminal(j.View.State) {
		time.Sleep(c.poll)
		code, _, data, err := c.do(http.MethodGet, "/v1/jobs/"+j.View.ID, nil, req, root, "client.poll")
		j.Polls++
		if err != nil || code != http.StatusOK {
			j.Err = fmt.Errorf("poll %s: status %d: %v", j.View.ID, code, err)
			return j
		}
		if err := json.Unmarshal(data, &j.View); err != nil {
			j.Err = fmt.Errorf("poll %s: decode view: %w", j.View.ID, err)
			return j
		}
	}
	j.SeenDone = time.Now()
	if j.View.State != serve.StateDone.String() {
		j.Err = fmt.Errorf("job %s ended %s: %s", j.View.ID, j.View.State, j.View.Error)
		return j
	}
	code, hdr, data, err := c.do(http.MethodGet, "/v1/jobs/"+j.View.ID+"/result", nil, req, root, "client.result")
	if err != nil || code != http.StatusOK {
		j.Err = fmt.Errorf("result %s: status %d: %v", j.View.ID, code, err)
		return j
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != j.View.Digest || hdr.Get("X-Exaresil-Digest") != j.View.Digest {
		j.Err = fmt.Errorf("result %s: bytes hash to %s, job reports %s", j.View.ID, got, j.View.Digest)
		return j
	}
	j.Bytes = len(data)
	j.End = time.Now()
	return j
}

// addStageSpans records the server-side stages JobView already stamps.
func (c *client) addStageSpans(req, root uint64, v serve.JobView) {
	if c.rec == nil || v.StartedAt == nil || v.FinishedAt == nil {
		return
	}
	c.rec.add(span{Req: req, ID: c.rec.newID(), Parent: root, Name: "serve.queue", Start: v.SubmittedAt, End: *v.StartedAt})
	c.rec.add(span{Req: req, ID: c.rec.newID(), Parent: root, Name: "serve.exec", Start: *v.StartedAt, End: *v.FinishedAt})
}

func terminal(state string) bool {
	switch state {
	case serve.StateDone.String(), serve.StateFailed.String(), serve.StateCanceled.String():
		return true
	}
	return false
}

// openLoop sends each arrival at its due time, whether or not earlier
// requests have finished, and waits for every job to settle. start is
// the phase's time zero.
func openLoop(c *client, start time.Time, arrivals []arrival) []job {
	out := make([]job, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		due := start.Add(a.At)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.run(a.Spec, due)
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps n jobs outstanding: each of n callers submits its next
// spec as soon as its previous job's result is verified, until window has
// passed or specs run out. Jobs started before the deadline finish. It
// returns the jobs and the phase's wall time up to the last completion.
func closedLoop(c *client, n int, window time.Duration, specs []serve.Spec) ([]job, time.Duration) {
	start := time.Now()
	deadline := start.Add(window)
	var mu sync.Mutex
	next := 0
	var out []job
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(specs) || !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				spec := specs[next]
				next++
				mu.Unlock()
				j := c.run(spec, time.Now())
				mu.Lock()
				out = append(out, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	last := start
	for _, j := range out {
		if j.End.After(last) {
			last = j.End
		}
	}
	return out, last.Sub(start)
}
