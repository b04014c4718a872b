package railfleet

import (
	"context"
	"math/rand"
	"testing"

	"photonrail"
	"photonrail/internal/scenario"
)

// randomSpec draws one random (but valid) grid from the preset space.
// Parallelism coordinates are chosen so every model divides cleanly;
// infeasible combinations (EP on dense models, C2 violations) are fine
// — they expand into reported skips, which must round-trip through the
// fleet identically too.
func randomSpec(rng *rand.Rand, trial int) scenario.Spec {
	pick := func(pool []string, atLeast int) []string {
		n := atLeast + rng.Intn(len(pool)-atLeast+1)
		idx := rng.Perm(len(pool))[:n]
		out := make([]string, 0, n)
		for _, i := range idx {
			out = append(out, pool[i])
		}
		return out
	}
	pars := []scenario.Parallelism{
		{TP: 4, DP: 2, PP: 2},
		{TP: 2, DP: 2, PP: 2},
		{TP: 4, DP: 1, CP: 2, PP: 2},
		{TP: 4, DP: 1, EP: 2, PP: 2},
	}
	nPars := 1 + rng.Intn(len(pars))
	var chosen []scenario.Parallelism
	for _, i := range rng.Perm(len(pars))[:nPars] {
		chosen = append(chosen, pars[i])
	}
	lats := []float64{1, 5, 20}
	spec := scenario.Spec{
		Name:         "prop",
		Models:       pick([]string{"Llama3-8B", "Mixtral-8x7B"}, 1),
		GPUs:         pick([]string{"A100", "H100"}, 1),
		Fabrics:      pick([]string{"electrical", "photonic", "provisioned", "static"}, 1),
		LatenciesMS:  lats[:1+rng.Intn(len(lats))],
		Parallelisms: chosen,
		Iterations:   1,
	}
	if rng.Intn(2) == 0 {
		spec.EagerRS = []bool{false, true}
	}
	_ = trial
	return spec
}

// TestFleetPropertyByteIdenticalNoDuplicatedWork is the randomized
// fleet property: for seeded random grids, a 3-backend fleet's rows
// are byte-identical to a single local engine run's, and the TOTAL
// simulations across the fleet (the sum of the backends' cache
// misses) equal the single run's — workload-key sharding never
// duplicates work across non-overlapping shards.
func TestFleetPropertyByteIdenticalNoDuplicatedWork(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized fleet property is not a -short test")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		spec := randomSpec(rng, trial)
		grid, err := spec.Resolve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := grid.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		en := photonrail.NewEngine(0)
		rows := localRows(t, en, grid)
		wantRows := gridJSON(t, grid.Name, rows)
		wantMisses := en.CacheStats().Misses

		fl := startFleet(t, 3, 3)
		c := fl.dialCoord(t)
		run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
		if err != nil {
			t.Fatalf("trial %d fleet run (spec %+v): %v", trial, spec, err)
		}
		if run.RowsJSON != wantRows {
			t.Fatalf("trial %d (spec %+v): fleet rows diverged from local", trial, spec)
		}
		var fleetMisses, fleetCells uint64
		for _, s := range fl.backends {
			st := s.Stats()
			fleetMisses += st.Misses
			fleetCells += st.CellsExecuted
		}
		if fleetCells != uint64(len(rows)) {
			t.Errorf("trial %d: fleet executed %d cells for a %d-cell grid (duplicated or lost work)",
				trial, fleetCells, len(rows))
		}
		if fleetMisses != wantMisses {
			t.Errorf("trial %d (spec %+v): fleet-wide misses = %d, want the single run's %d",
				trial, spec, fleetMisses, wantMisses)
		}
	}
}
