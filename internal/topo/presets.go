package topo

// Preset scale-up domain sizes used in the paper's analysis.
const (
	// PerlmutterGPUsPerNode matches the §3.1 testbed: 4× A100 per node.
	PerlmutterGPUsPerNode = 4
	// DGXH200GPUsPerNode matches DGX/HGX H200: 8 GPUs per node.
	DGXH200GPUsPerNode = 8
	// GB200GPUsPerNode matches an NVL72 GB200 rack-scale domain.
	GB200GPUsPerNode = 72
)

// Perlmutter returns the §3.1 measurement testbed: numNodes nodes of
// 4× A100 joined by NVLink 3.0, with Slingshot-class scale-out. The paper
// used numNodes = 4 (16 GPUs).
func Perlmutter(numNodes int, nic PortConfig) (*Cluster, error) {
	return New(Config{
		NumNodes:         numNodes,
		GPUsPerNode:      PerlmutterGPUsPerNode,
		NIC:              nic,
		ScaleUpBandwidth: DefaultScaleUpBandwidth, // NVLink 3.0
		ScaleUpLatency:   DefaultScaleUpLatency,
		ScaleOutLatency:  DefaultScaleOutLatency,
	})
}
