// Package topo models the cluster topology of a rail-optimized ML fabric:
// scale-up domains (e.g. DGX/HGX nodes) of GPUs joined by a high-bandwidth
// interconnect, and a scale-out network of "rails", where rail r wires
// together the GPUs with local rank r across every scale-up domain
// (Fig. 1 of the paper).
//
// The same logical topology supports three fabric realizations:
//
//   - FabricElectricalRail: each rail is a packet-switched network giving
//     full any-to-any connectivity among same-rank GPUs (the status quo).
//   - FabricPhotonicRail: each rail is an optical circuit switch; a GPU
//     port connects to exactly one peer port at a time (the proposal).
//   - FabricFatTree: a conventional full-bisection Clos connecting every
//     NIC (the cost baseline of Fig. 7).
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

// FabricKind selects the scale-out fabric realization.
type FabricKind int

// The fabric realizations compared in the paper.
const (
	FabricElectricalRail FabricKind = iota
	FabricPhotonicRail
	FabricFatTree
)

// String returns the paper's name for the fabric kind.
func (k FabricKind) String() string {
	switch k {
	case FabricElectricalRail:
		return "rail-optimized (electrical)"
	case FabricPhotonicRail:
		return "photonic rail (Opus)"
	case FabricFatTree:
		return "fat-tree"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

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
	// Fabric names the scale-out realization, for descriptions such as
	// String. It is descriptive only: the simulator reads
	// netsim.Options.Mode, so a compiled workload's cluster, which
	// serves every fabric, leaves it unset (the zero value).
	Fabric FabricKind
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
	Fabric           FabricKind
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
		Fabric:           cfg.Fabric,
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

// RailMembers returns, in node order, the GPUs on rail r.
func (c *Cluster) RailMembers(r RailID) []GPUID {
	if int(r) < 0 || int(r) >= c.NumRails() {
		panic(fmt.Sprintf("topo: rail %d out of range [0,%d)", r, c.NumRails()))
	}
	out := make([]GPUID, c.NumNodes)
	for n := 0; n < c.NumNodes; n++ {
		out[n] = c.GPUAt(NodeID(n), int(r))
	}
	return out
}

// NodeMembers returns, in local-rank order, the GPUs in node n.
func (c *Cluster) NodeMembers(n NodeID) []GPUID {
	if int(n) < 0 || int(n) >= c.NumNodes {
		panic(fmt.Sprintf("topo: node %d out of range [0,%d)", n, c.NumNodes))
	}
	out := make([]GPUID, c.GPUsPerNode)
	for r := 0; r < c.GPUsPerNode; r++ {
		out[r] = c.GPUAt(n, r)
	}
	return out
}

// SameNode reports whether two GPUs share a scale-up domain.
func (c *Cluster) SameNode(a, b GPUID) bool { return c.Node(a) == c.Node(b) }

// SameRail reports whether two GPUs attach to the same rail.
func (c *Cluster) SameRail(a, b GPUID) bool { return c.LocalRank(a) == c.LocalRank(b) }

// Contains reports whether g is a valid GPU ID for this cluster.
func (c *Cluster) Contains(g GPUID) bool { return g >= 0 && int(g) < c.NumGPUs() }

// String summarizes the cluster, e.g.
// "16 GPUs (4 nodes x 4), photonic rail (Opus), NIC 2x200Gbps".
func (c *Cluster) String() string {
	return fmt.Sprintf("%d GPUs (%d nodes x %d), %v, NIC %v",
		c.NumGPUs(), c.NumNodes, c.GPUsPerNode, c.Fabric, c.NIC)
}
