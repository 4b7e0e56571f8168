package mesh

import (
	"net/http"
	"strconv"

	"exaresil/internal/obs"
	"exaresil/internal/serve"
)

// The mesh mounts serve's /v1 job routes over the Coordinator, so a fleet
// speaks exactly the codec a single exaserve process speaks and serveclient
// and the exaload scenarios work against either unchanged. Only fleet state
// is the mesh's own: GET /v1/mesh and /healthz report the fleet instead of
// one node, and GET /metrics merges every replica's registry.

// routes mounts the API.
func (c *Coordinator) routes() {
	c.mux = http.NewServeMux()
	serve.MountJobRoutes(c.mux, c, nil)
	c.mux.HandleFunc("GET /v1/mesh", c.handleMesh)
	c.mux.HandleFunc("GET /healthz", c.handleMesh)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
}

// Handler is the mesh's HTTP surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// handleMesh reports fleet membership and failover totals.
func (c *Coordinator) handleMesh(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, c.MeshView())
}

// handleMetrics renders the coordinator's families and every replica's as
// one exposition, each replica series tagged replica="<idx>". Dead slots
// still expose their last registry (counters survive replica lives — the
// registry is per-slot, not per-generation). Replica registries are
// immutable after New (revival reuses them), so no membership lock is
// needed here.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	srcs := []obs.Source{{Reg: c.cfg.Obs}}
	for _, rep := range c.replicas {
		srcs = append(srcs, obs.Source{Reg: rep.reg, Labels: []obs.Label{obs.L("replica", strconv.Itoa(rep.idx))}})
	}
	serve.WriteMetrics(w, srcs...)
}
