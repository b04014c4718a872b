package opus

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"photonrail/internal/collective"
	"photonrail/internal/ocs"
	"photonrail/internal/parallelism"
	"photonrail/internal/sim"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// TestControllerRandomWorkloadProperty fuzzes the controller with random
// acquire/hold/release schedules over random rail-aligned ring groups
// and checks the core invariants:
//
//   - liveness: every acquisition is eventually granted and the engine
//     drains (no deadlock, no lost requests);
//   - safety: two groups whose circuits share a port are never active
//     at the same time (Objective 3 — no circuit conflicts).
func TestControllerRandomWorkloadProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := rng.Intn(6) + 2
		cl := topo.MustNew(topo.Config{NumNodes: nodes, GPUsPerNode: 2})
		engine := sim.NewEngine()
		plan := PortPlan{Cluster: cl, PortsPerGPU: 2}
		latency := units.Duration(rng.Int63n(int64(20 * units.Millisecond)))

		// Random rail-0 groups: rings over random node subsets, numbered
		// in creation order and registered in the controller's table.
		numGroups := rng.Intn(4) + 2
		groups := make([]*collective.Group, 0, numGroups)
		circuits := make(map[string]ocs.Matching, numGroups)
		for i := 0; i < numGroups; i++ {
			size := rng.Intn(nodes-1) + 2
			perm := rng.Perm(nodes)[:size]
			ranks := make([]topo.GPUID, size)
			for j, n := range perm {
				ranks[j] = cl.GPUAt(topo.NodeID(n), 0)
			}
			g := &collective.Group{
				ID:    i,
				Name:  fmt.Sprintf("g%d", i),
				Axis:  parallelism.FSDP,
				Ranks: ranks,
			}
			m, err := plan.CircuitsFor(g)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			groups = append(groups, g)
			circuits[g.Name] = m
		}
		ctrl, err := NewController(SimClock(engine), NewCircuitTable(plan, groups), latency)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		conflictPair := func(a, b string) bool {
			for p := range circuits[a] {
				if _, ok := circuits[b].Peer(p); ok {
					return true
				}
			}
			return false
		}

		requested, granted := 0, 0
		active := make(map[string]int)
		safetyOK := true
		ops := rng.Intn(60) + 10
		for i := 0; i < ops; i++ {
			g := groups[rng.Intn(len(groups))]
			at := units.Duration(rng.Int63n(int64(200 * units.Millisecond)))
			hold := units.Duration(rng.Int63n(int64(10 * units.Millisecond)))
			requested++
			engine.PostAfter(at, func() {
				err := ctrl.Acquire(0, g, func() {
					granted++
					// Safety: no conflicting group is active right now.
					for name, n := range active {
						if n > 0 && name != g.Name && conflictPair(name, g.Name) {
							safetyOK = false
						}
					}
					active[g.Name]++
					engine.PostAfter(hold, func() {
						active[g.Name]--
						if err := ctrl.Release(0, g); err != nil {
							safetyOK = false
						}
					})
				})
				if err != nil {
					safetyOK = false
				}
			})
			// Occasionally mix in speculative requests.
			if rng.Intn(4) == 0 {
				sg := groups[rng.Intn(len(groups))]
				engine.PostAfter(at, func() {
					if err := ctrl.Provision(0, sg); err != nil {
						safetyOK = false
					}
				})
			}
		}
		engine.Run()
		if granted != requested {
			t.Logf("seed %d: granted %d of %d (deadlock or loss)", seed, granted, requested)
			return false
		}
		return safetyOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
