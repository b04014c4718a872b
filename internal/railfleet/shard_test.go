package railfleet

import (
	"fmt"
	"math"
	"testing"

	"photonrail/internal/scenario"
)

// staticTargets lists the weight-1 targets of the given static fleet
// positions: the shard a -backends fleet computes for its statics.
func staticTargets(positions ...int) []Target {
	out := make([]Target, len(positions))
	for i, p := range positions {
		out[i] = Target{ID: StaticID(p), Weight: 1}
	}
	return out
}

// TestAssignCoversEveryCellOnce: the shard assignment partitions the
// remaining indices exactly — no cell lost, none duplicated — and
// keeps per-backend lists in expansion order.
func TestAssignCoversEveryCellOnce(t *testing.T) {
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := AssignWeighted(cells, all, staticTargets(0, 1, 2))
	seen := make(map[int]int)
	for id, idxs := range assignment {
		for j := 1; j < len(idxs); j++ {
			if idxs[j] <= idxs[j-1] {
				t.Fatalf("backend %s list not in expansion order: %v", id, idxs)
			}
		}
		for _, idx := range idxs {
			seen[idx]++
		}
	}
	for _, idx := range all {
		if seen[idx] != 1 {
			t.Fatalf("cell %d assigned %d times", idx, seen[idx])
		}
	}
	// The acceptance distribution: every backend executes >= 1 cell of
	// the 48-cell fig8-5d grid on a 3-backend fleet.
	for bi := 0; bi < 3; bi++ {
		if len(assignment[StaticID(bi)]) == 0 {
			t.Errorf("backend %d received no fig8-5d cells", bi)
		}
	}
}

// TestAssignColocatesWorkloads: all fabric/latency variants of one
// workload land on one backend — the no-duplicated-baselines property.
func TestAssignColocatesWorkloads(t *testing.T) {
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := AssignWeighted(cells, all, staticTargets(0, 1, 2))
	owner := make(map[string]string)
	for id, idxs := range assignment {
		for _, idx := range idxs {
			key := WorkloadKey(cells[idx])
			if prev, ok := owner[key]; ok && prev != id {
				t.Fatalf("workload %q split across backends %s and %s", key, prev, id)
			}
			owner[key] = id
		}
	}
}

// TestAssignRendezvousStability: removing one backend moves only its
// cells; every other assignment is untouched (the failover property —
// survivors keep their warm caches).
func TestAssignRendezvousStability(t *testing.T) {
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	before := AssignWeighted(cells, all, staticTargets(0, 1, 2))
	for _, dead := range []int{0, 1, 2} {
		var alive []int
		for bi := 0; bi < 3; bi++ {
			if bi != dead {
				alive = append(alive, bi)
			}
		}
		after := AssignWeighted(cells, all, staticTargets(alive...))
		for _, bi := range alive {
			id := StaticID(bi)
			beforeSet := make(map[int]bool, len(before[id]))
			for _, idx := range before[id] {
				beforeSet[idx] = true
			}
			for _, idx := range before[id] {
				found := false
				for _, got := range after[id] {
					if got == idx {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("backend %d lost cell %d when backend %d died", bi, idx, dead)
				}
			}
			// Anything new on bi must have belonged to the dead backend.
			for _, idx := range after[id] {
				if beforeSet[idx] {
					continue
				}
				inDead := false
				for _, d := range before[StaticID(dead)] {
					if d == idx {
						inDead = true
						break
					}
				}
				if !inDead {
					t.Fatalf("cell %d moved to backend %d but did not belong to dead backend %d", idx, bi, dead)
				}
			}
		}
	}
}

// TestWeightedShareTracksCapacity: over a large synthetic key space,
// each target's share of keys tracks its capacity weight within a few
// percent — the CARP-style scoring really is capacity-proportional, so
// a backend advertising twice the workers absorbs about twice the
// workloads.
func TestWeightedShareTracksCapacity(t *testing.T) {
	targets := []Target{
		{ID: "a", Weight: 1},
		{ID: "b", Weight: 2},
		{ID: "c", Weight: 4},
		{ID: "d", Weight: 8},
	}
	const keys = 20000
	counts := make(map[string]int, len(targets))
	for i := 0; i < keys; i++ {
		counts[ownerOf(fmt.Sprintf("workload-%d", i), targets)]++
	}
	const totalWeight = 15.0
	for _, tg := range targets {
		want := keys * float64(tg.Weight) / totalWeight
		got := float64(counts[tg.ID])
		if diff := math.Abs(got-want) / want; diff > 0.10 {
			t.Errorf("target %s (weight %d) owns %d keys, want ~%.0f (share off by %.1f%%)",
				tg.ID, tg.Weight, counts[tg.ID], want, diff*100)
		}
	}
}

// TestWeightedJoinLeaveMinimalMovement: the weighted rendezvous keeps
// the minimal-disruption property — a leave moves only the leaver's
// keys, a join moves keys only onto the joiner, and a re-weight moves
// keys only onto the re-weighted target.
func TestWeightedJoinLeaveMinimalMovement(t *testing.T) {
	base := []Target{{ID: "a", Weight: 1}, {ID: "b", Weight: 2}, {ID: "c", Weight: 3}}
	const keys = 5000
	owner := func(ts []Target, i int) string { return ownerOf(fmt.Sprintf("workload-%d", i), ts) }
	before := make([]string, keys)
	for i := range before {
		before[i] = owner(base, i)
	}

	// Leave: dropping "c" relocates nothing that was not c's.
	left := base[:2]
	for i := 0; i < keys; i++ {
		if got := owner(left, i); before[i] != "c" && got != before[i] {
			t.Fatalf("key %d moved from %s to %s when only c left", i, before[i], got)
		}
	}

	// Join: every key "d" does not win stays put.
	joined := append(append([]Target(nil), base...), Target{ID: "d", Weight: 2})
	moved := 0
	for i := 0; i < keys; i++ {
		got := owner(joined, i)
		if got != before[i] {
			if got != "d" {
				t.Fatalf("key %d moved from %s to %s on d's join", i, before[i], got)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Error("no key moved to the joiner")
	}

	// Re-weight: raising b's capacity pulls keys toward b only.
	rew := []Target{{ID: "a", Weight: 1}, {ID: "b", Weight: 4}, {ID: "c", Weight: 3}}
	for i := 0; i < keys; i++ {
		if got := owner(rew, i); got != before[i] && got != "b" {
			t.Fatalf("key %d moved from %s to %s when only b was re-weighted", i, before[i], got)
		}
	}
}
