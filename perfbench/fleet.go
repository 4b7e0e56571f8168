package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"exaresil/internal/experiments"
	"exaresil/internal/mesh"
	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// fleet is the served workloads' system under test: an in-process mesh of
// replicas behind real loopback HTTP.
type fleet struct {
	coord  *mesh.Coordinator
	srv    *http.Server
	served chan error // receives Serve's return once the listener closes
	base   string

	// simReg, on traced fleets only, is the registry every replica's
	// experiments report to.
	simReg *obs.Registry
}

// startFleet builds the mesh — two one-worker replicas, affinity routing,
// admission that always admits, default caches, queueDepth-deep queues —
// and serves it on a loopback port. With rec set, the registries are
// attached and every request gets a server span.
func startFleet(rec *recorder) (*fleet, error) {
	f := &fleet{}
	cfg := mesh.Config{
		Replicas:  replicas,
		Serve:     serve.Config{Workers: 1, QueueDepth: queueDepth},
		Admission: mesh.AlwaysAdmit(),
		// The replicas live in this process and never die; a generous
		// timeout keeps a scheduler stall on a busy machine from being
		// mistaken for a dead replica and failing jobs over mid-run.
		HeartbeatTimeout: 30 * time.Second,
	}
	if rec != nil {
		f.simReg = obs.NewRegistry()
		cfg.Serve.Experiments = experiments.Config{Obs: f.simReg}
		cfg.Obs = obs.NewRegistry() // read back through /metrics with the replicas
	}
	coord, err := mesh.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = coord.Drain(context.Background()) // nothing was submitted; the listen error is the one to report
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	f.coord = coord
	f.base = "http://" + ln.Addr().String()
	f.srv = &http.Server{Handler: traceHandler(rec, coord.Handler()), ReadHeaderTimeout: 10 * time.Second}
	f.served = make(chan error, 1)
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// stop drains the mesh, closes the HTTP server and waits until it has
// stopped serving.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errDrain := f.coord.Drain(ctx)
	errShut := f.srv.Shutdown(ctx)
	errServe := <-f.served
	if errors.Is(errServe, http.ErrServerClosed) {
		errServe = nil
	}
	if err := errors.Join(errDrain, errShut, errServe); err != nil {
		return fmt.Errorf("stop fleet: %w", err)
	}
	return nil
}

// scrape fetches the merged /metrics exposition (coordinator and replica
// registries) of a traced fleet.
func (f *fleet) scrape(c *client) (promText, error) {
	resp, err := c.hc.Get(f.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: status %d: %v", resp.StatusCode, err)
	}
	return parseProm(string(data))
}
