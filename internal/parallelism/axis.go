// Package parallelism names the axes of hybrid ML parallelism (DP, FSDP,
// TP, TP&SP, CP, PP, EP) and the collective kinds, phases and
// frequencies of their traffic, and holds the paper's tables and
// formulas over them: the Table 1 rule-of-thumb planner, the Table 2
// per-axis communication characteristics, and the Eq. 1 window count.
// A program's groups and their ranks come from workload.Build's
// placement.
package parallelism

import "fmt"

// Axis is one parallelism dimension.
type Axis int

// The parallelism axes of Table 2.
const (
	// DP is data parallelism: replicas exchange gradients with a
	// backward-pass AllReduce per layer/model.
	DP Axis = iota
	// FSDP is fully sharded data parallelism: forward AllGather and
	// backward ReduceScatter per layer/model.
	FSDP
	// TP is tensor parallelism: forward+backward AllReduce per operator.
	TP
	// TPSP is tensor parallelism combined with sequence parallelism:
	// forward+backward AllGather and ReduceScatter per operator.
	TPSP
	// CP is context parallelism: forward AllGather, backward
	// ReduceScatter per layer.
	CP
	// PP is pipeline parallelism: forward+backward Send/Recv per
	// microbatch.
	PP
	// EP is expert parallelism: forward+backward AllToAll per layer.
	EP
)

var axisNames = map[Axis]string{
	DP: "DP", FSDP: "FSDP", TP: "TP", TPSP: "TP&SP", CP: "CP", PP: "PP", EP: "EP",
}

// String returns the axis's conventional abbreviation.
func (a Axis) String() string {
	if n, ok := axisNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// IsDataParallel reports whether the axis replicates data (DP or FSDP).
func (a Axis) IsDataParallel() bool { return a == DP || a == FSDP }

// Axes lists every axis in Table 2 row order.
func Axes() []Axis { return []Axis{DP, FSDP, TP, TPSP, CP, PP, EP} }
