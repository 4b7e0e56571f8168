package mesh

import (
	"strconv"

	"exaresil/internal/obs"
)

// Metrics is the coordinator's obs surface (exaresil_mesh_*). Replica
// internals keep their exaresil_serve_* families on per-replica
// registries; GET /metrics merges both views into one exposition, tagging
// replica series with a replica label (see handleMetrics).
type Metrics struct {
	reg *obs.Registry

	Admitted     *obs.Counter // submissions past the admission stage
	Rejected     *obs.Counter // submissions refused by the admission policy
	Spills       *obs.Counter // submissions that fell past their first-choice replica
	Exhausted    *obs.Counter // submissions no live replica would take
	Failovers    *obs.Counter // replicas declared dead by the heartbeat monitor
	Revivals     *obs.Counter // replicas brought back with a fresh generation
	Rerouted     *obs.Counter // orphaned jobs resubmitted to survivors
	HandoffCells *obs.Counter // checkpoint cells carried to survivors during failover
}

// NewMetrics registers the mesh families on r (nil = disabled).
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		reg:          r,
		Admitted:     r.Counter("exaresil_mesh_admission_total", "admission-stage outcomes", obs.L("outcome", "admitted")),
		Rejected:     r.Counter("exaresil_mesh_admission_total", "admission-stage outcomes", obs.L("outcome", "rejected")),
		Spills:       r.Counter("exaresil_mesh_spills_total", "submissions routed past a rejecting first-choice replica"),
		Exhausted:    r.Counter("exaresil_mesh_exhausted_total", "submissions rejected because every live replica refused"),
		Failovers:    r.Counter("exaresil_mesh_failovers_total", "replicas declared dead by missed heartbeats"),
		Revivals:     r.Counter("exaresil_mesh_revivals_total", "replica revivals (fresh generation, prewarmed snapshots)"),
		Rerouted:     r.Counter("exaresil_mesh_rerouted_jobs_total", "orphaned jobs resubmitted to surviving replicas"),
		HandoffCells: r.Counter("exaresil_mesh_handoff_cells_total", "checkpoint cells handed from dead replicas to survivors"),
	}
}

// Routed is the per-replica routed-submissions counter.
func (m *Metrics) Routed(idx int) *obs.Counter {
	return m.reg.Counter("exaresil_mesh_routed_total", "submissions delivered to each replica",
		obs.L("replica", strconv.Itoa(idx)))
}

// ReplicaUp is the per-replica liveness gauge (1 alive, 0 dead).
func (m *Metrics) ReplicaUp(idx int) *obs.Gauge {
	return m.reg.Gauge("exaresil_mesh_replica_up", "replica liveness as seen by the heartbeat monitor",
		obs.L("replica", strconv.Itoa(idx)))
}
