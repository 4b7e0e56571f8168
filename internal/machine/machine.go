// Package machine models the hardware of the simulated computing platform:
// node counts, per-node compute and memory, memory bandwidth, the
// interconnect, and component reliability.
//
// The paper derives its exascale configuration from China's Sunway
// TaihuLight (the #1 TOP500 system of November 2016) by scaling the
// per-node core count and memory capacity by roughly 4x, and its network
// from a projected "NDR InfiniBand" fabric. Both the contemporary machine
// and the projected exascale machine are provided as named configurations;
// every study consumes only the scalar parameters held here, so alternative
// machines are a matter of constructing a different Config.
package machine

import (
	"errors"
	"fmt"
	"slices"

	"exaresil/internal/units"
)

// Network describes the system interconnect as the paper's communication
// model sees it: a latency, an aggregate link bandwidth, and the number of
// simultaneous connections each switch sustains.
type Network struct {
	// Latency is the one-way message latency L.
	Latency units.Duration
	// Bandwidth is the link bandwidth B_N.
	Bandwidth units.Bandwidth
	// SwitchConnections is N_S, the maximum number of simultaneous
	// connections at each switch. Checkpoint traffic to the parallel file
	// system serializes over these connections (Eq. 3).
	SwitchConnections int
}

// Node describes one system node.
type Node struct {
	// Cores is the number of processing elements on the node.
	Cores int
	// TFLOPS is the node's peak compute throughput in teraFLOPS.
	TFLOPS float64
	// Memory is the node's RAM capacity.
	Memory units.DataSize
	// MemoryBandwidth is B_M, the aggregate memory bandwidth used for
	// in-RAM checkpoints (Eqs. 5 and 6).
	MemoryBandwidth units.Bandwidth
}

// Config is a complete machine description.
type Config struct {
	// Name identifies the configuration in reports.
	Name string
	// Nodes is the machine's node count.
	Nodes int
	// Node describes each (homogeneous) node.
	Node Node
	// Network describes the interconnect.
	Network Network
	// MTBF is M_n, the mean time between failures of a single node.
	MTBF units.Duration
	// Classes, when non-empty, partitions the fleet into heterogeneous
	// node classes (speed, memory, and per-class reliability overlaying
	// the base Node); their counts must sum to Nodes. Empty means the
	// homogeneous machine the paper models — every existing study sees
	// exactly the machine it always did. See hetero.go.
	Classes []NodeClass
}

// Exascale returns the paper's projected exascale machine: 120,000 nodes of
// 1028 cores and ~12 TFLOPS each (4x the TaihuLight node), 128 GB of RAM
// per node behind a 320 GB/s hybrid-memory-cube interface, and an NDR
// InfiniBand-class network (L = 0.5 us, B_N = 600 GB/s, N_S = 12). The
// default node MTBF is ten years; Section V's sensitivity study lowers it
// to 2.5 years via WithMTBF.
func Exascale() Config {
	return Config{
		Name:  "exascale-120k",
		Nodes: 120000,
		Node: Node{
			Cores:           1028,
			TFLOPS:          12.0,
			Memory:          128 * units.Gigabyte,
			MemoryBandwidth: 320 * units.GBPerSecond,
		},
		Network: Network{
			Latency:           units.Duration(0.5) * units.Microsecond,
			Bandwidth:         600 * units.GBPerSecond,
			SwitchConnections: 12,
		},
		MTBF: 10 * units.Year,
	}
}

// SunwayTaihuLight returns the contemporary reference machine the exascale
// projection is scaled from: 40,960 nodes of 260 cores (~3.1 TFLOPS) and
// 32 GB of DDR3 each.
func SunwayTaihuLight() Config {
	return Config{
		Name:  "sunway-taihulight",
		Nodes: 40960,
		Node: Node{
			Cores:           260,
			TFLOPS:          3.06,
			Memory:          32 * units.Gigabyte,
			MemoryBandwidth: 136 * units.GBPerSecond,
		},
		Network: Network{
			Latency:           units.Duration(1) * units.Microsecond,
			Bandwidth:         16 * units.GBPerSecond,
			SwitchConnections: 12,
		},
		MTBF: 10 * units.Year,
	}
}

// WithMTBF returns a copy of c with the node MTBF replaced. The name gains
// a suffix so reports distinguish sensitivity runs.
func (c Config) WithMTBF(mtbf units.Duration) Config {
	c.MTBF = mtbf
	c.Name = fmt.Sprintf("%s-mtbf-%s", c.Name, mtbf)
	return c
}

// Equal reports whether c and o describe the same machine: every field
// equal, Node, Network and each node class by value. A field added to
// Config must be compared here too; TestConfigEqualCoversEveryField fails
// until it is.
func (c Config) Equal(o Config) bool {
	return c.Name == o.Name && c.Nodes == o.Nodes && c.Node == o.Node && c.Network == o.Network &&
		c.MTBF == o.MTBF && slices.Equal(c.Classes, o.Classes)
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	var errs []error
	if c.Nodes <= 0 {
		errs = append(errs, fmt.Errorf("machine: node count %d must be positive", c.Nodes))
	}
	if c.Node.Cores <= 0 {
		errs = append(errs, fmt.Errorf("machine: cores per node %d must be positive", c.Node.Cores))
	}
	if c.Node.TFLOPS <= 0 {
		errs = append(errs, fmt.Errorf("machine: node TFLOPS %v must be positive", c.Node.TFLOPS))
	}
	if c.Node.Memory <= 0 {
		errs = append(errs, fmt.Errorf("machine: node memory %v must be positive", c.Node.Memory))
	}
	if c.Node.MemoryBandwidth <= 0 {
		errs = append(errs, fmt.Errorf("machine: memory bandwidth %v must be positive", c.Node.MemoryBandwidth))
	}
	if c.Network.Latency < 0 {
		errs = append(errs, fmt.Errorf("machine: network latency %v must be non-negative", c.Network.Latency))
	}
	if c.Network.Bandwidth <= 0 {
		errs = append(errs, fmt.Errorf("machine: network bandwidth %v must be positive", c.Network.Bandwidth))
	}
	if c.Network.SwitchConnections <= 0 {
		errs = append(errs, fmt.Errorf("machine: switch connections %d must be positive", c.Network.SwitchConnections))
	}
	if c.MTBF <= 0 {
		errs = append(errs, fmt.Errorf("machine: MTBF %v must be positive", c.MTBF))
	}
	if err := c.validateClasses(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// TotalCores reports the machine's aggregate core count.
func (c Config) TotalCores() int { return c.Nodes * c.Node.Cores }

// PeakPFLOPS reports the machine's aggregate peak throughput in petaFLOPS.
func (c Config) PeakPFLOPS() float64 { return float64(c.Nodes) * c.Node.TFLOPS / 1000 }

// TotalMemory reports the machine's aggregate RAM.
func (c Config) TotalMemory() units.DataSize {
	return c.Node.Memory * units.DataSize(c.Nodes)
}

// NodeFailureRate reports the failure rate of a single node, 1/M_n.
func (c Config) NodeFailureRate() units.Rate {
	return units.RatePer(1, c.MTBF)
}

// SystemFailureRate reports lambda_s = N_s / M_n (Eq. 2) for a given count
// of non-idle nodes. A fully idle machine produces no failures that matter
// to the study, hence rate zero.
func (c Config) SystemFailureRate(activeNodes int) units.Rate {
	if activeNodes <= 0 {
		return 0
	}
	return units.Rate(float64(activeNodes) / float64(c.MTBF))
}

// NodesForFraction reports how many nodes constitute the given fraction of
// the machine (e.g. 0.25 for a quarter-machine application), rounding to
// the nearest whole node but never below one.
func (c Config) NodesForFraction(fraction float64) int {
	if fraction <= 0 {
		return 0
	}
	n := int(float64(c.Nodes)*fraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n > c.Nodes {
		n = c.Nodes
	}
	return n
}

// String summarizes the machine for reports.
func (c Config) String() string {
	return fmt.Sprintf("%s: %d nodes x %d cores (%.3g PFLOPS, %s RAM, MTBF %s)",
		c.Name, c.Nodes, c.Node.Cores, c.PeakPFLOPS(), c.TotalMemory(), c.MTBF)
}
