package railfleet

import (
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"photonrail/internal/scenario"
)

// WorkloadKey is the canonical shard key of one grid cell: every
// coordinate that shapes the cell's simulated Workload — and therefore
// its electrical baseline — excluding the fabric kind and latency.
// Sharding by this key (rather than the full cell name) colocates all
// fabric variants of one workload on one backend, so each baseline is
// simulated exactly once fleet-wide and the fleet's total simulation
// count equals a single daemon's (the property test pins this).
//
// The key reads model|GPU|parallelism|schedule|j<jitter>|e<eagerRS>|
// microbatches|microbatch size|iterations, the jitter in its shortest
// %g form. It is built with appends, since the coordinator keys every
// cell of every wave.
func WorkloadKey(c scenario.Cell) string {
	var buf [96]byte
	b := append(buf[:0], c.Model.Name...)
	b = append(b, '|')
	b = append(b, c.GPU.Name...)
	b = append(b, '|')
	b = c.Par.AppendName(b)
	b = append(b, '|')
	b = append(b, c.Schedule.String()...)
	b = append(b, "|j"...)
	b = strconv.AppendFloat(b, c.JitterFrac, 'g', -1, 64)
	b = append(b, "|e"...)
	b = strconv.AppendBool(b, c.EagerRS)
	for _, v := range [...]int{c.Microbatches, c.MicrobatchSize, c.Iterations} {
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

// Target is one assignable backend for weighted rendezvous sharding:
// a stable identity (the hash input, so the shard survives restarts
// and listener port choices) and a capacity weight.
type Target struct {
	ID string
	// Weight is the relative share of cells the target should carry —
	// its worker-pool capacity. Values below 1 are treated as 1.
	Weight int
}

// StaticID is the registry identity of the i-th static -backends
// entry, reserved against registration; statics shard as weight-1
// targets. Fleet positions, not addresses, feed the hash, so a static
// fleet's assignment is reproducible across runs and port choices.
func StaticID(i int) string { return "s" + strconv.Itoa(i) }

// weightedScore ranks one target for one workload key — weighted
// rendezvous hashing (CARP-style): the key/target hash maps to a
// uniform u in (0,1) and scores -w/ln(u). The target with the highest
// score owns the key; E[share] is proportional to weight, and the
// score is monotone in u, so equal weights reduce to plain
// highest-random-weight ordering and a weight change moves only the
// keys that change owners.
func weightedScore(key string, t Target) float64 {
	// key, '#' and the target ID go straight into the hash, which
	// never returns a write error.
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	_, _ = h.Write([]byte{'#'})
	_, _ = h.Write([]byte(t.ID))
	// FNV's avalanche is weak for suffix differences: two hashes whose
	// inputs differ only in the trailing target ID agree in their high
	// bits, which collapses u across targets and lets the largest weight
	// win every key. A murmur3-style finalizer restores full mixing.
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	// Map the top 53 bits into (0,1): float64-exact, never 0 or 1.
	u := (float64(s>>11) + 0.5) / (1 << 53)
	w := t.Weight
	if w < 1 {
		w = 1
	}
	return -float64(w) / math.Log(u)
}

// ownerOf picks the highest-scoring target for a key; score ties (only
// possible for duplicate IDs) break to the lexicographically smaller
// ID, so the choice is deterministic whatever order targets arrive in.
func ownerOf(key string, targets []Target) string {
	owner, best := "", math.Inf(-1)
	for _, t := range targets {
		if s := weightedScore(key, t); s > best || (s == best && t.ID < owner) {
			best, owner = s, t.ID
		}
	}
	return owner
}

// AssignWeighted shards the cells at the remaining expansion-order
// indices across the targets: each cell goes to the target with the
// highest weighted rendezvous score for its workload key, so a
// target's expected cell share tracks its capacity weight and a
// join/leave/re-weight moves only the keys whose owner changed.
// Per-target index lists come back in expansion order, so batch
// results merge deterministically.
func AssignWeighted(cells []scenario.Cell, remaining []int, targets []Target) map[string][]int {
	out := make(map[string][]int, len(targets))
	byKey := make(map[string]string) // workload key -> chosen target id
	sorted := append([]int(nil), remaining...)
	sort.Ints(sorted)
	for _, idx := range sorted {
		key := WorkloadKey(cells[idx])
		owner, ok := byKey[key]
		if !ok {
			owner = ownerOf(key, targets)
			byKey[key] = owner
		}
		if owner != "" {
			out[owner] = append(out[owner], idx)
		}
	}
	return out
}
