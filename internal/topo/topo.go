// Package topo models the cluster topology of a rail-optimized ML fabric:
// scale-up domains (e.g. DGX/HGX nodes) of GPUs joined by a high-bandwidth
// interconnect, and a scale-out network of "rails", where rail r wires
// together the GPUs with local rank r across every scale-up domain
// (Fig. 1 of the paper).
//
// A Cluster describes that shape and the bandwidths and latencies of its
// links; it names no fabric. Whether a rail is a packet switch or an
// optical circuit switch is the simulator's choice (netsim.Options.Mode),
// so one cluster serves every fabric a workload runs on.
package topo

import (
	"fmt"

	"photonrail/internal/units"
)

// GPUID is a global GPU rank in [0, NumGPUs).
type GPUID int

// NodeID identifies a scale-up domain in [0, NumNodes).
type NodeID int

// RailID identifies a rail in [0, GPUsPerNode). Rail r contains the GPUs
// whose local rank is r.
type RailID int

// PortConfig is a NIC port split. ConnectX-7 exposes one physical 400G
// cage as 1×400G, 2×200G, or 4×100G logical ports (paper §3, refs
// [44,48]).
type PortConfig struct {
	Ports   int             // logical ports per GPU NIC
	PerPort units.Bandwidth // bandwidth of each logical port
}

// The three ConnectX-7 options from the paper's example.
var (
	OnePort400G  = PortConfig{Ports: 1, PerPort: 400 * units.Gbps}
	TwoPort200G  = PortConfig{Ports: 2, PerPort: 200 * units.Gbps}
	FourPort100G = PortConfig{Ports: 4, PerPort: 100 * units.Gbps}
)

// Total returns the aggregate NIC bandwidth across logical ports.
func (p PortConfig) Total() units.Bandwidth {
	return units.Bandwidth(int64(p.Ports) * int64(p.PerPort))
}

// String renders e.g. "2x200Gbps".
func (p PortConfig) String() string {
	return fmt.Sprintf("%dx%v", p.Ports, p.PerPort)
}

// Validate checks the port configuration is physically sensible.
func (p PortConfig) Validate() error {
	if p.Ports <= 0 {
		return fmt.Errorf("topo: port config with %d ports", p.Ports)
	}
	if p.PerPort <= 0 {
		return fmt.Errorf("topo: port config with bandwidth %v", p.PerPort)
	}
	return nil
}

// Cluster describes a rail-organized GPU cluster. It is immutable once
// built with New.
type Cluster struct {
	// NumNodes is the number of scale-up domains.
	NumNodes int
	// GPUsPerNode is the scale-up domain size; it equals the number of
	// rails.
	GPUsPerNode int
	// NIC is the per-GPU scale-out port configuration.
	NIC PortConfig
	// ScaleUpBandwidth is the per-GPU bandwidth of the scale-up
	// interconnect (e.g. NVLink).
	ScaleUpBandwidth units.Bandwidth
	// ScaleUpLatency is the per-message latency inside a scale-up domain.
	ScaleUpLatency units.Duration
	// ScaleOutLatency is the per-message latency across the scale-out
	// fabric (the α term of the collective cost model).
	ScaleOutLatency units.Duration
}

// Config holds the parameters for New; zero latencies/bandwidths take the
// defaults below.
type Config struct {
	NumNodes         int
	GPUsPerNode      int
	NIC              PortConfig
	ScaleUpBandwidth units.Bandwidth
	ScaleUpLatency   units.Duration
	ScaleOutLatency  units.Duration
}

// Defaults (A100/NVLink 3.0-class scale-up, RDMA-class scale-out latency).
const (
	DefaultScaleUpLatency  = 2 * units.Microsecond
	DefaultScaleOutLatency = 5 * units.Microsecond
)

// DefaultScaleUpBandwidth is NVLink 3.0-class per-GPU bandwidth
// (600 GB/s total ≈ 4.8 Tbps; we use the per-direction 300 GB/s = 2.4 Tbps).
const DefaultScaleUpBandwidth = 2400 * units.Gbps

// New validates cfg and returns the cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.NumNodes <= 0 {
		return nil, fmt.Errorf("topo: NumNodes = %d", cfg.NumNodes)
	}
	if cfg.GPUsPerNode <= 0 {
		return nil, fmt.Errorf("topo: GPUsPerNode = %d", cfg.GPUsPerNode)
	}
	if cfg.NIC == (PortConfig{}) {
		cfg.NIC = TwoPort200G
	}
	if err := cfg.NIC.Validate(); err != nil {
		return nil, err
	}
	if cfg.ScaleUpBandwidth == 0 {
		cfg.ScaleUpBandwidth = DefaultScaleUpBandwidth
	}
	if cfg.ScaleUpBandwidth < 0 {
		return nil, fmt.Errorf("topo: ScaleUpBandwidth = %v", cfg.ScaleUpBandwidth)
	}
	if cfg.ScaleUpLatency == 0 {
		cfg.ScaleUpLatency = DefaultScaleUpLatency
	}
	if cfg.ScaleOutLatency == 0 {
		cfg.ScaleOutLatency = DefaultScaleOutLatency
	}
	if cfg.ScaleUpLatency < 0 || cfg.ScaleOutLatency < 0 {
		return nil, fmt.Errorf("topo: negative latency")
	}
	return &Cluster{
		NumNodes:         cfg.NumNodes,
		GPUsPerNode:      cfg.GPUsPerNode,
		NIC:              cfg.NIC,
		ScaleUpBandwidth: cfg.ScaleUpBandwidth,
		ScaleUpLatency:   cfg.ScaleUpLatency,
		ScaleOutLatency:  cfg.ScaleOutLatency,
	}, nil
}

// MustNew is New but panics on error; for tests and examples with literal
// configurations.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NumGPUs returns the total GPU count.
func (c *Cluster) NumGPUs() int { return c.NumNodes * c.GPUsPerNode }

// NumRails returns the rail count (== GPUsPerNode).
func (c *Cluster) NumRails() int { return c.GPUsPerNode }

// Node returns the scale-up domain hosting g.
func (c *Cluster) Node(g GPUID) NodeID { return NodeID(int(g) / c.GPUsPerNode) }

// LocalRank returns g's rank within its scale-up domain; it equals the
// rail g's NIC attaches to.
func (c *Cluster) LocalRank(g GPUID) int { return int(g) % c.GPUsPerNode }

// Rail returns the rail g's NIC attaches to.
func (c *Cluster) Rail(g GPUID) RailID { return RailID(c.LocalRank(g)) }

// GPUAt returns the GPU with the given local rank in the given node.
func (c *Cluster) GPUAt(n NodeID, localRank int) GPUID {
	if localRank < 0 || localRank >= c.GPUsPerNode {
		panic(fmt.Sprintf("topo: local rank %d out of range [0,%d)", localRank, c.GPUsPerNode))
	}
	if int(n) < 0 || int(n) >= c.NumNodes {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", n, c.NumNodes))
	}
	return GPUID(int(n)*c.GPUsPerNode + localRank)
}

// Contains reports whether g is a valid GPU ID for this cluster.
func (c *Cluster) Contains(g GPUID) bool { return g >= 0 && int(g) < c.NumGPUs() }

// String summarizes the cluster, e.g. "16 GPUs (4 nodes x 4), NIC 2x200Gbps".
func (c *Cluster) String() string {
	return fmt.Sprintf("%d GPUs (%d nodes x %d), NIC %v",
		c.NumGPUs(), c.NumNodes, c.GPUsPerNode, c.NIC)
}
