package photonrail

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"testing"

	"photonrail/internal/scenario"
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

// gridRowsOf runs g on en and returns its rows.
func gridRowsOf(t testing.TB, en *Engine, g Grid) []scenario.Row {
	t.Helper()
	res, err := en.RunGrid(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows.(GridRows).Cells
}

func TestRunGridSmall(t *testing.T) {
	rows := gridRowsOf(t, NewEngine(0), smallGrid())
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	var skips []scenario.Row
	byFabric := map[string][]scenario.Row{}
	for _, row := range rows {
		if row.Status == "skip" {
			skips = append(skips, row)
			continue
		}
		byFabric[row.Fabric] = append(byFabric[row.Fabric], row)
	}
	if len(skips) != 1 || !strings.Contains(skips[0].SkipReason, "C2") {
		t.Fatalf("skips = %+v, want one C2 static skip", skips)
	}
	if got := byFabric["electrical"][0].Slowdown; got != 1 {
		t.Errorf("electrical slowdown = %v, want exactly 1", got)
	}
	for _, row := range append(byFabric["photonic"], byFabric["provisioned"]...) {
		if row.Slowdown < 1-1e-9 {
			t.Errorf("cell %s faster than its electrical baseline: %v", row.Cell, row.Slowdown)
		}
		if row.Reconfigurations == 0 {
			t.Errorf("cell %s reports no reconfigurations", row.Cell)
		}
	}
	// Provisioning never loses to reactive at the same latency.
	for i := range byFabric["photonic"] {
		re, pv := byFabric["photonic"][i], byFabric["provisioned"][i]
		if pv.LatencyMS != re.LatencyMS {
			t.Fatalf("fabric groups misaligned: %v vs %v", pv.LatencyMS, re.LatencyMS)
		}
		if pv.Slowdown > re.Slowdown+1e-9 {
			t.Errorf("provisioned slower than reactive at %vms: %v > %v",
				re.LatencyMS, pv.Slowdown, re.Slowdown)
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
	gridRowsOf(t, en, g)
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
	gridRowsOf(t, en, g)
	if st2 := en.CacheStats(); st2.Misses != 4 {
		t.Errorf("second run re-simulated: %+v", st2)
	}
}

// TestRunGridParallelDeterministic asserts a parallel grid run is
// byte-identical to a sequential one across every renderer.
func TestRunGridParallelDeterministic(t *testing.T) {
	g := smallGrid()
	seq, err := NewEngine(1).RunGrid(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewEngine(8).RunGrid(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Fatal("parallel rows differ from sequential")
	}
	for _, render := range []func(*ExperimentResult, io.Writer) error{
		(*ExperimentResult).RenderText, (*ExperimentResult).RenderCSV, (*ExperimentResult).RenderJSON,
	} {
		var a, b bytes.Buffer
		if err := render(seq, &a); err != nil {
			t.Fatal(err)
		}
		if err := render(par, &b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("parallel rendering differs from sequential:\n%s\nvs\n%s", b.String(), a.String())
		}
	}
}

func TestRunGridProgressHook(t *testing.T) {
	g := Grid{Iterations: 1} // 2 cells
	var calls []int
	_, err := NewEngine(1).RunGrid(context.Background(), g, func(done, total int) {
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
	if _, err := NewEngine(1).RunGrid(context.Background(), Grid{LatenciesMS: []float64{-3}}, nil); err == nil {
		t.Error("negative latency accepted")
	}
}

// TestRunCellsSubsetMatchesFullRun: a subset execution returns exactly
// the full run's rows at those indices (so a fleet merging disjoint
// subsets reconstructs a full run byte for byte), in indices order,
// without re-simulating anything a prior run already cached.
func TestRunCellsSubsetMatchesFullRun(t *testing.T) {
	en := NewEngine(0)
	g := smallGrid()
	full, err := en.RunGrid(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullRows := full.Rows.(GridRows).Cells
	misses := en.CacheStats().Misses
	indices := []int{5, 2, 0}
	var ticks []int
	got, err := en.RunCellRowsCtx(context.Background(), g, indices, func(done, total int) {
		if total != len(indices) {
			t.Errorf("progress total = %d, want %d", total, len(indices))
		}
		ticks = append(ticks, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(indices) {
		t.Fatalf("rows = %d, want %d", len(got), len(indices))
	}
	for i, idx := range indices {
		if got[i].Row != fullRows[idx] || !bytes.Equal(got[i].JSON, full.rowJSON[idx]) {
			t.Errorf("subset row %d diverged from full run cell %d:\n got: %+v\nwant: %+v",
				i, idx, got[i].Row, fullRows[idx])
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
		if _, err := en.RunCellRowsCtx(context.Background(), smallGrid(), []int{idx}, nil); err == nil ||
			!strings.Contains(err.Error(), "outside grid") {
			t.Errorf("index %d error = %v", idx, err)
		}
	}
	if st := en.CacheStats(); st.Misses != 0 {
		t.Errorf("rejected subsets simulated %d results", st.Misses)
	}
}
