// Package collective is a miniature collective-communication library
// model (a simulated NCCL): communication groups, the standard collective
// algorithms, and their α–β cost model.
//
// The package encodes the paper's constraint C1: on an optical circuit
// switch, a GPU's node degree is bounded by its NIC port count, so only
// ring algorithms (degree 2) and point-to-point transfers are feasible
// without per-round reconfiguration; latency-optimized trees and
// recursive doubling require higher fan-out.
package collective

import (
	"fmt"
	"math"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// Kind aliases the collective kinds shared with the parallelism tables.
type Kind = parallelism.CollectiveKind

// Re-exported collective kinds for call-site brevity.
const (
	AllReduce     = parallelism.AllReduce
	AllGather     = parallelism.AllGather
	ReduceScatter = parallelism.ReduceScatter
	SendRecv      = parallelism.SendRecv
	AllToAll      = parallelism.AllToAll
)

// Algorithm selects how a collective is realized on the fabric.
type Algorithm int

// The algorithms the cost model covers.
const (
	// Ring is the bandwidth-optimal, degree-2 algorithm; the only
	// collective algorithm realizable on static optical circuits (C1).
	Ring Algorithm = iota
	// Tree is a latency-optimized double binary tree (NCCL-style).
	Tree
	// RecursiveDoubling is the log-round recursive halving/doubling
	// family.
	RecursiveDoubling
	// Direct is pairwise exchange over full connectivity (AllToAll on a
	// packet switch, or Send/Recv).
	Direct
	// MultiHopRing realizes AllToAll over ring circuits by forwarding
	// through intermediate GPUs, paying the paper's "bandwidth tax"
	// (§3, §5): each byte traverses k/2 links on average.
	MultiHopRing
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Ring:
		return "ring"
	case Tree:
		return "tree"
	case RecursiveDoubling:
		return "recursive-doubling"
	case Direct:
		return "direct"
	case MultiHopRing:
		return "multi-hop-ring"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// RequiredDegree returns the simultaneous circuit fan-out a participant
// needs to run the algorithm without mid-collective reconfiguration.
func (a Algorithm) RequiredDegree(groupSize int) int {
	switch a {
	case Ring, MultiHopRing:
		return 2
	case Tree:
		return 3 // parent + two children in a binary tree
	case RecursiveDoubling:
		// A different partner each round; all must be reachable.
		if groupSize <= 1 {
			return 0
		}
		return int(math.Ceil(math.Log2(float64(groupSize))))
	case Direct:
		return groupSize - 1
	default:
		return groupSize - 1
	}
}

// FeasibleOnCircuits reports whether the algorithm runs on static optical
// circuits with the given per-GPU port budget (constraint C1).
func (a Algorithm) FeasibleOnCircuits(groupSize, ports int) bool {
	return a.RequiredDegree(groupSize) <= ports
}

// Group is a communication group: an ordered set of GPUs collectively
// communicating along one parallelism axis. Order is ring order.
type Group struct {
	// ID numbers the group where it is created: a program's groups, or
	// the groups a controller has registered, are numbered 0, 1, … in
	// creation order, and circuit tables index their entries by it.
	ID int
	// Name identifies the group, e.g. "fsdp-rail0-shard1".
	Name string
	// Axis is the parallelism dimension that created the group.
	Axis parallelism.Axis
	// Ranks lists members in ring order.
	Ranks []topo.GPUID
}

// Size returns the member count.
func (g *Group) Size() int { return len(g.Ranks) }

// Contains reports whether gpu participates.
func (g *Group) Contains(gpu topo.GPUID) bool {
	for _, r := range g.Ranks {
		if r == gpu {
			return true
		}
	}
	return false
}

// Validate checks the group is well-formed: nonempty with distinct ranks.
func (g *Group) Validate() error {
	if len(g.Ranks) == 0 {
		return fmt.Errorf("collective: group %s is empty", g.Name)
	}
	seen := make(map[topo.GPUID]bool, len(g.Ranks))
	for _, r := range g.Ranks {
		if seen[r] {
			return fmt.Errorf("collective: group %s repeats rank %d", g.Name, r)
		}
		seen[r] = true
	}
	return nil
}

// Time returns the α–β model completion time of a collective of the given
// kind and algorithm over k ranks moving `bytes` per rank, on links of
// bandwidth bw with per-message latency alpha.
//
// Formulas (S = bytes, B = bw, k = ranks):
//
//	ring AllReduce:        2(k−1)α + 2(k−1)/k · S/B
//	ring AllGather/RS:      (k−1)α +  (k−1)/k · S/B
//	tree AllReduce:        2⌈log₂k⌉α + 2·S/B       (pipelined double tree)
//	recursive-doubling AR: 2⌈log₂k⌉α + 2(k−1)/k · S/B
//	Send/Recv:              α + S/B
//	direct AllToAll:        (k−1)α + (k−1)/k · S/B  (S = per-rank buffer)
//	multi-hop ring AllToAll:(k−1)α + (k/2)·(k−1)/k · S/B
//
// The multi-hop form carries the average-hop-count bandwidth tax of
// forwarding through intermediate GPUs on a ring (paper §3 and §5).
func Time(kind Kind, alg Algorithm, k int, bytes units.ByteSize, bw units.Bandwidth, alpha units.Duration) (units.Duration, error) {
	if k <= 0 {
		return 0, fmt.Errorf("collective: %v over %d ranks", kind, k)
	}
	if bytes < 0 {
		return 0, fmt.Errorf("collective: negative size %d", bytes)
	}
	if k == 1 {
		return 0, nil // self-collective is free
	}
	serial := units.TransferTime(bytes, bw)
	frac := func(num, den int) units.Duration {
		return units.Duration(float64(serial) * float64(num) / float64(den))
	}
	logk := units.Duration(math.Ceil(math.Log2(float64(k))))

	switch kind {
	case AllReduce:
		switch alg {
		case Ring:
			return units.Duration(2*(k-1))*alpha + frac(2*(k-1), k), nil
		case Tree:
			return 2*logk*alpha + 2*serial, nil
		case RecursiveDoubling:
			return 2*logk*alpha + frac(2*(k-1), k), nil
		}
	case AllGather, ReduceScatter:
		switch alg {
		case Ring:
			return units.Duration(k-1)*alpha + frac(k-1, k), nil
		case RecursiveDoubling:
			return logk*alpha + frac(k-1, k), nil
		}
	case SendRecv:
		if alg == Direct || alg == Ring {
			return alpha + serial, nil
		}
	case AllToAll:
		switch alg {
		case Direct:
			return units.Duration(k-1)*alpha + frac(k-1, k), nil
		case MultiHopRing:
			base := frac(k-1, k)
			return units.Duration(k-1)*alpha + units.Duration(float64(base)*float64(k)/2), nil
		}
	}
	return 0, fmt.Errorf("collective: %v has no %v algorithm", kind, alg)
}

// DefaultAlgorithm returns the algorithm a fabric realization uses for a
// collective kind: rings (and direct P2P/AllToAll-by-forwarding) on
// circuits, NCCL-style defaults on packet switches.
func DefaultAlgorithm(kind Kind, onCircuits bool) Algorithm {
	switch kind {
	case SendRecv:
		if onCircuits {
			return Ring
		}
		return Direct
	case AllToAll:
		if onCircuits {
			return MultiHopRing
		}
		return Direct
	default:
		return Ring
	}
}
