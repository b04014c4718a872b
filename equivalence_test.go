package photonrail

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"photonrail/internal/scenario"
)

// oracleCell computes one grid cell the monolithic way: uncached
// package-level Simulate calls (and the uncached provisioned-stable
// loop), mirroring cellResultOf's field assignments exactly. It is the
// reference the staged pipeline is pinned against.
func oracleCell(c GridCell) (GridCellResult, error) {
	out := GridCellResult{Cell: c}
	if reason := c.Skip(); reason != "" {
		out.Skipped = true
		out.SkipReason = reason
		return out, nil
	}
	w := gridWorkload(c)
	base, err := Simulate(w, Fabric{Kind: ElectricalRail})
	if err != nil {
		return out, err
	}
	var res *Result
	switch c.Fabric {
	case scenario.Electrical:
		res = base
	case scenario.Photonic:
		res, err = Simulate(w, Fabric{Kind: PhotonicRail, ReconfigLatencyMS: c.LatencyMS})
	case scenario.PhotonicProvisioned:
		res, err = simulateProvisionedStable(w, c.LatencyMS)
	case scenario.PhotonicStatic:
		res, err = Simulate(w, Fabric{Kind: PhotonicStaticPartition})
	default:
		err = fmt.Errorf("unknown grid fabric kind %v", c.Fabric)
	}
	if err != nil {
		return out, err
	}
	out.MeanIterationSeconds = res.MeanIterationSeconds
	out.TotalSeconds = res.TotalSeconds
	out.Slowdown = res.MeanIterationSeconds / base.MeanIterationSeconds
	out.Reconfigurations = res.Reconfigurations
	out.FastGrants = res.FastGrants
	out.QueuedGrants = res.QueuedGrants
	out.BlockedSeconds = res.BlockedSeconds
	return out, nil
}

// TestStagedPipelineMatchesOracle is the equivalence property test for
// the staged pipeline: a seeded random sample of feasible fig8-5d cells
// is executed through the production path (Build → Provision → Time,
// memoized, on the parallel worker pool via RunCellsCtx) and through
// the monolithic oracle, and every sampled cell's result must be
// byte-identical between the two. The sample is deterministic, so a
// divergence is reproducible; running the staged side on the worker
// pool also makes this test a data-race probe under -race.
func TestStagedPipelineMatchesOracle(t *testing.T) {
	grid := Fig8Grid5D()
	cells := grid.Expand()
	var feasible []int
	for i, c := range cells {
		if c.Skip() == "" {
			feasible = append(feasible, i)
		}
	}
	if len(feasible) < 4 {
		t.Fatalf("fig8-5d has %d feasible cells, want >= 4", len(feasible))
	}
	sample := 6
	if testing.Short() {
		sample = 3
	}
	if sample > len(feasible) {
		sample = len(feasible)
	}
	// Seeded sample without replacement; the seed pins the cell set so
	// failures replay exactly.
	rng := rand.New(rand.NewSource(0xF165D))
	rng.Shuffle(len(feasible), func(i, j int) {
		feasible[i], feasible[j] = feasible[j], feasible[i]
	})
	indices := feasible[:sample]

	en := NewEngine(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	staged, err := en.RunCellsCtx(ctx, grid, indices)
	if err != nil {
		t.Fatal(err)
	}
	for k, idx := range indices {
		c := cells[idx]
		t.Run(c.Name(), func(t *testing.T) {
			want, err := oracleCell(c)
			if err != nil {
				t.Fatal(err)
			}
			got := staged[k]
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("staged cell diverges from oracle:\nstaged: %+v\noracle: %+v", got, want)
			}
		})
	}
}
