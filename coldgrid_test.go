package photonrail

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"photonrail/internal/goldentest"
)

// coldGrids are cold-sweep's shapes in miniature: the Llama3-8B,
// Mixtral-8x7B and Llama3-70B presets, 3D, 4D and 5D parallelism, a
// non-zero compute jitter per grid, and the electrical, photonic,
// provisioned and static fabrics. Every cell of a grid misses on a
// fresh engine, so together they drive the whole simulation core:
// the event engine, the Opus controller's reactive and provisioned
// passes, and the static partition (whose 5D cells skip on C2).
func coldGrids() []GridSpec {
	fabrics := []string{"electrical", "photonic", "provisioned", "static"}
	return []GridSpec{
		{
			Name:         "cold-llama8b-3d",
			Models:       []string{"Llama3-8B"},
			GPUs:         []string{"A100"},
			Fabrics:      fabrics,
			LatenciesMS:  []float64{1, 10, 100},
			Parallelisms: []GridParallelism{{TP: 4, DP: 2, PP: 2}},
			JitterFracs:  []float64{0.0123},
			Microbatches: 4,
			Iterations:   1,
		},
		{
			Name:         "cold-mixtral-5d",
			Models:       []string{"Mixtral-8x7B"},
			GPUs:         []string{"H100"},
			Fabrics:      fabrics,
			LatenciesMS:  []float64{1, 5, 20, 100},
			Parallelisms: []GridParallelism{{TP: 4, DP: 1, EP: 2, PP: 2}},
			JitterFracs:  []float64{0.0157},
			Microbatches: 6,
			Iterations:   1,
		},
		{
			Name:         "cold-llama70b-4d",
			Models:       []string{"Llama3-70B"},
			GPUs:         []string{"H200"},
			Fabrics:      fabrics,
			LatenciesMS:  []float64{1, 10, 100},
			Parallelisms: []GridParallelism{{TP: 4, DP: 1, CP: 2, PP: 2}},
			JitterFracs:  []float64{0.0191},
			Microbatches: 8,
			Iterations:   1,
		},
	}
}

// TestColdGridGolden pins the cold grids' JSON rows, controller
// telemetry included, and the engine's per-stage and seed counts after
// each grid. The oracle Simulate shares netsim, the Opus controller and
// the event queue with the staged engine, so a change there that moves
// an output moves both sides of TestStagedPipelineMatchesOracle alike;
// this corpus, written before such a change, is what catches it.
// Regenerate intentionally with `go test . -run ColdGridGolden -update`.
//
// Each grid is one workload, compiled once for every fabric: Build is
// asked once per Time miss and once per Provision miss and misses once.
// The static cells skip on C2, so the Llama3-8B and Llama3-70B grids
// make 4 Time misses (baseline + 3 photonic) and 3 Provision misses, 7
// Build lookups (1 miss, 6 hits), and the Mixtral-8x7B grid 5 + 4 = 9
// (1 miss, 8 hits): Build reads 6/1, 14/2 and 20/3 after each grid.
func TestColdGridGolden(t *testing.T) {
	stats := func(hits, misses, bh, bm, ph, pm, th, tm, sh, sm uint64) CacheStats {
		return CacheStats{
			Hits: hits, Misses: misses,
			Build:     StageStats{Hits: bh, Misses: bm},
			Provision: StageStats{Hits: ph, Misses: pm},
			Time:      StageStats{Hits: th, Misses: tm},
			SeedHits:  sh, SeedMisses: sm,
		}
	}
	want := []CacheStats{
		stats(15, 8, 6, 1, 0, 3, 9, 4, 2, 1),
		stats(35, 18, 14, 2, 0, 7, 21, 9, 2, 5),
		stats(50, 26, 20, 3, 0, 10, 30, 13, 2, 8),
	}
	grid, _ := Lookup("grid")
	en := NewEngine(1)
	var out bytes.Buffer
	for i, spec := range coldGrids() {
		res, err := grid.Run(context.Background(), en, Params{Grid: &spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.RenderJSON(&out); err != nil {
			t.Fatal(err)
		}
		if got := en.CacheStats(); got != want[i] {
			t.Errorf("after grid %s: CacheStats() =\n %+v\nwant\n %+v", spec.Name, got, want[i])
		}
	}
	goldentest.Check(t, out.Bytes(), filepath.Join("testdata", "golden", "cold_grids.json"))
}

// BenchmarkColdGrid runs the cold grids on a fresh one-worker engine
// per op, so every cell misses and every row is rendered, as in a
// cold-sweep request. One worker keeps the provisioning
// seeds' hits, and with them the allocation count, deterministic: the
// perf gate pins this benchmark's allocs/op.
func BenchmarkColdGrid(b *testing.B) {
	specs := coldGrids()
	grids := make([]Grid, len(specs))
	for i, spec := range specs {
		g, err := spec.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		grids[i] = g
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := NewEngine(1)
		for _, g := range grids {
			if _, err := en.RunGrid(context.Background(), g, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
