package photonrail

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// smallGrid is one workload on four fabrics at two latencies:
// 1 electrical + 2 photonic + 2 provisioned + 1 static (skipped — two
// scale-out axes violate C2 on the 2-port NIC) = 6 cells.
func smallGrid() Grid {
	return Grid{
		Name: "small",
		Fabrics: []GridFabricKind{
			GridElectrical, GridPhotonic, GridPhotonicProvisioned, GridPhotonicStatic,
		},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	}
}

func TestRunGridSmall(t *testing.T) {
	en := NewEngine(0)
	res, err := en.RunGrid(smallGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d, want 6", len(res.Cells))
	}
	skips := res.Skips()
	if len(skips) != 1 || !strings.Contains(skips[0].SkipReason, "C2") {
		t.Fatalf("skips = %+v, want one C2 static skip", skips)
	}
	byFabric := map[GridFabricKind][]GridCellResult{}
	for _, c := range res.Cells {
		byFabric[c.Cell.Fabric] = append(byFabric[c.Cell.Fabric], c)
	}
	if got := byFabric[GridElectrical][0].Slowdown; got != 1 {
		t.Errorf("electrical slowdown = %v, want exactly 1", got)
	}
	for _, c := range append(byFabric[GridPhotonic], byFabric[GridPhotonicProvisioned]...) {
		if c.Slowdown < 1-1e-9 {
			t.Errorf("cell %s faster than its electrical baseline: %v", c.Cell.Name(), c.Slowdown)
		}
		if c.Reconfigurations == 0 {
			t.Errorf("cell %s reports no reconfigurations", c.Cell.Name())
		}
	}
	// Provisioning never loses to reactive at the same latency.
	for i := range byFabric[GridPhotonic] {
		re, pv := byFabric[GridPhotonic][i], byFabric[GridPhotonicProvisioned][i]
		if pv.Cell.LatencyMS != re.Cell.LatencyMS {
			t.Fatalf("fabric groups misaligned: %v vs %v", pv.Cell.LatencyMS, re.Cell.LatencyMS)
		}
		if pv.Slowdown > re.Slowdown+1e-9 {
			t.Errorf("provisioned slower than reactive at %vms: %v > %v",
				re.Cell.LatencyMS, pv.Slowdown, re.Slowdown)
		}
	}
}

// TestRunGridBaselineSimulatedOnce pins the cache behaviour the grid
// relies on: the shared electrical baseline is simulated exactly once
// per batch, however many cells normalize against it.
func TestRunGridBaselineSimulatedOnce(t *testing.T) {
	g := Grid{
		Fabrics:     []GridFabricKind{GridElectrical, GridPhotonic},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	}
	en := NewEngine(4)
	if _, err := en.RunGrid(g); err != nil {
		t.Fatal(err)
	}
	st := en.CacheStats()
	// 3 cells: each fetches the baseline (1 Time miss + 2 Time hits);
	// the two photonic latencies are one Time miss each. Each of the 3
	// Time misses fetches the workload's one program, which every
	// fabric shares: 1 Build miss + 2 Build hits. Hits 2 + 2 = 4 and
	// misses 3 + 1 = 4; anything above 4 misses means the baseline was
	// re-simulated or the program recompiled.
	if st.Misses != 4 || st.Hits != 4 {
		t.Errorf("cache stats = %+v, want {Hits:4 Misses:4}", st)
	}
	if st.Time.Misses != 3 || st.Build.Misses != 1 || st.Build.Hits != 2 {
		t.Errorf("stage stats = %+v, want 3 Time misses, 1 Build miss and 2 Build hits", st)
	}
	// A second identical run is served entirely from cache.
	if _, err := en.RunGrid(g); err != nil {
		t.Fatal(err)
	}
	if st2 := en.CacheStats(); st2.Misses != 4 {
		t.Errorf("second run re-simulated: %+v", st2)
	}
}

// TestRunGridParallelDeterministic asserts a parallel grid run is
// byte-identical to a sequential one across every renderer.
func TestRunGridParallelDeterministic(t *testing.T) {
	g := smallGrid()
	seq, err := NewEngine(1).RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(8).RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows(), par.Rows()) {
		t.Fatal("parallel rows differ from sequential")
	}
	if seq.Table().String() != par.Table().String() {
		t.Fatal("parallel table differs from sequential")
	}
}

func TestRunGridProgressHook(t *testing.T) {
	g := Grid{Iterations: 1} // 2 cells
	var calls []int
	_, err := NewEngine(1).RunGridProgress(g, func(done, total int) {
		if total != 2 {
			t.Errorf("total = %d", total)
		}
		calls = append(calls, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(calls, []int{1, 2}) {
		t.Errorf("progress calls = %v", calls)
	}
}

func TestRunGridRejectsMalformed(t *testing.T) {
	if _, err := RunGrid(Grid{LatenciesMS: []float64{-3}}); err == nil {
		t.Error("negative latency accepted")
	}
}

// TestRunCellsSubsetMatchesFullRun: a subset execution returns exactly
// the full run's results at those indices (so a fleet merging disjoint
// subsets reconstructs a full run byte for byte), in indices order,
// without re-simulating anything a prior run already cached.
func TestRunCellsSubsetMatchesFullRun(t *testing.T) {
	en := NewEngine(0)
	g := smallGrid()
	full, err := en.RunGrid(g)
	if err != nil {
		t.Fatal(err)
	}
	misses := en.CacheStats().Misses
	indices := []int{5, 2, 0}
	var ticks []int
	got, err := en.RunCellsProgressCtx(context.Background(), g, indices, func(done, total int) {
		if total != len(indices) {
			t.Errorf("progress total = %d, want %d", total, len(indices))
		}
		ticks = append(ticks, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(indices) {
		t.Fatalf("results = %d, want %d", len(got), len(indices))
	}
	for i, idx := range indices {
		if !reflect.DeepEqual(got[i], full.Cells[idx]) {
			t.Errorf("subset result %d diverged from full run cell %d:\n got: %+v\nwant: %+v",
				i, idx, got[i], full.Cells[idx])
		}
	}
	if after := en.CacheStats().Misses; after != misses {
		t.Errorf("subset run simulated %d new results on a warm cache", after-misses)
	}
	if len(ticks) != len(indices) || ticks[len(ticks)-1] != len(indices) {
		t.Errorf("progress ticks = %v", ticks)
	}
}

// TestRunCellsRejectsBadIndices: out-of-range indices are errors before
// any simulation runs.
func TestRunCellsRejectsBadIndices(t *testing.T) {
	en := NewEngine(1)
	for _, idx := range []int{-1, 6, 1 << 30} {
		if _, err := en.RunCellsCtx(context.Background(), smallGrid(), []int{idx}); err == nil ||
			!strings.Contains(err.Error(), "outside grid") {
			t.Errorf("index %d error = %v", idx, err)
		}
	}
	if st := en.CacheStats(); st.Misses != 0 {
		t.Errorf("rejected subsets simulated %d results", st.Misses)
	}
}
