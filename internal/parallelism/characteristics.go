package parallelism

// CollectiveKind identifies a collective operation type. It mirrors
// Table 2's abbreviations (AR, AG, RS, Send/Recv, AllToAll).
type CollectiveKind int

// The collective kinds appearing in Table 2.
const (
	AllReduce CollectiveKind = iota
	AllGather
	ReduceScatter
	SendRecv
	AllToAll
)

// String returns the Table 2 abbreviation.
func (k CollectiveKind) String() string {
	switch k {
	case AllReduce:
		return "AR"
	case AllGather:
		return "AG"
	case ReduceScatter:
		return "RS"
	case SendRecv:
		return "Send/Recv"
	case AllToAll:
		return "AllToAll"
	default:
		return "?"
	}
}

// Phase is the training-pass a collective fires in.
type Phase int

// Training phases.
const (
	Forward Phase = iota
	Backward
)

// String returns "fwd" or "bwd".
func (p Phase) String() string {
	if p == Forward {
		return "fwd"
	}
	return "bwd"
}

// Frequency is how often an axis's collectives fire.
type Frequency int

// Collective firing frequencies from Table 2.
const (
	PerLayer Frequency = iota
	PerOperator
	PerMicrobatch
	PerModel
)

// String returns the Table 2 wording.
func (f Frequency) String() string {
	switch f {
	case PerLayer:
		return "per layer"
	case PerOperator:
		return "per operator"
	case PerMicrobatch:
		return "per microbatch"
	case PerModel:
		return "per model"
	default:
		return "?"
	}
}

// Comm is one communication behaviour of an axis: which collective, in
// which phase, how often.
type Comm struct {
	Phase Phase
	Kind  CollectiveKind
	Freq  Frequency
}

// Characteristics is one row of Table 2.
type Characteristics struct {
	Axis Axis
	// MemoryReduction lists the memory terms the axis divides, in the
	// paper's notation (gbs = global batch size, dp/tp/pp/cp/ep =
	// degrees).
	MemoryReduction []string
	// ComputeReduction lists the compute terms the axis divides.
	ComputeReduction []string
	// Comms lists the communication the axis incurs.
	Comms []Comm
}

// table2 is the static content of Table 2 [paper ref 31].
var table2 = map[Axis]Characteristics{
	DP: {
		Axis:             DP,
		MemoryReduction:  []string{"gbs/dp"},
		ComputeReduction: []string{"gbs/dp"},
		Comms: []Comm{
			{Backward, AllReduce, PerLayer},
		},
	},
	FSDP: {
		Axis:             FSDP,
		MemoryReduction:  []string{"gbs/dp", "params/dp"},
		ComputeReduction: []string{"gbs/dp"},
		Comms: []Comm{
			{Forward, AllGather, PerLayer},
			{Backward, ReduceScatter, PerLayer},
		},
	},
	TP: {
		Axis:             TP,
		MemoryReduction:  []string{"params/tp", "grads/tp", "optims/tp"},
		ComputeReduction: []string{"params/tp"},
		Comms: []Comm{
			{Forward, AllReduce, PerOperator},
			{Backward, AllReduce, PerOperator},
		},
	},
	TPSP: {
		Axis:             TPSP,
		MemoryReduction:  []string{"params/tp", "grads/tp", "optims/tp", "activs/tp"},
		ComputeReduction: []string{"params/tp", "activs/tp"},
		Comms: []Comm{
			{Forward, AllGather, PerOperator},
			{Forward, ReduceScatter, PerOperator},
			{Backward, AllGather, PerOperator},
			{Backward, ReduceScatter, PerOperator},
		},
	},
	CP: {
		Axis:             CP,
		MemoryReduction:  []string{"kv_cache/cp", "seq/cp"},
		ComputeReduction: []string{"seq/cp"},
		Comms: []Comm{
			{Forward, AllGather, PerLayer},
			{Backward, ReduceScatter, PerLayer},
		},
	},
	PP: {
		Axis:             PP,
		MemoryReduction:  []string{"params/pp", "grads/pp", "optims/pp", "activs/pp"},
		ComputeReduction: []string{"params/pp"},
		Comms: []Comm{
			{Forward, SendRecv, PerMicrobatch},
			{Backward, SendRecv, PerMicrobatch},
		},
	},
	EP: {
		Axis:             EP,
		MemoryReduction:  []string{"experts/ep"},
		ComputeReduction: []string{"experts/ep"},
		Comms: []Comm{
			{Forward, AllToAll, PerLayer},
			{Backward, AllToAll, PerLayer},
		},
	},
}

// AllCharacteristics returns Table 2 in row order.
func AllCharacteristics() []Characteristics {
	out := make([]Characteristics, 0, len(table2))
	for _, a := range Axes() {
		out = append(out, table2[a])
	}
	return out
}
