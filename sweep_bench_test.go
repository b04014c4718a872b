// Benchmarks for the concurrent experiment engine: the same sweep on a
// one-worker and an all-cores engine, with byte-identical []SweepPoint
// output (asserted by TestSweepParallelDeterminism). No test asserts
// their ratio. On a 2-core VM, BenchmarkSweepParallel ran 1.54–1.81×
// faster than BenchmarkSweepSequential (3 runs at 5x, full Fig. 8
// config); 4+ cores are unmeasured.
//
// Compare with:
//
//	go test -bench 'BenchmarkSweep(Sequential|Parallel)$' -benchtime 2x
package photonrail

import (
	"context"
	"runtime"
	"testing"
)

// sweepBenchConfig scales the benchmark workload down under -short so
// CI smoke runs stay quick; the full config is the paper's Fig. 8.
func sweepBenchConfig() (Workload, []float64) {
	if testing.Short() {
		return PaperWorkload(1), []float64{0, 10, 100}
	}
	return PaperWorkload(2), PaperLatenciesMS()
}

// benchmarkSweep times full sweep batches on fresh engines (a fresh
// engine per iteration, so every batch pays its simulations instead of
// replaying a warm cache).
func benchmarkSweep(b *testing.B, workers int) {
	w, lats := sweepBenchConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		en := NewEngine(workers)
		points, err := en.SweepReconfigLatencyCtx(context.Background(), w, lats)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != len(lats) {
			b.Fatalf("points = %d", len(points))
		}
		if st := en.CacheStats(); st.Hits < 1 {
			b.Fatalf("cache stats %+v: baseline not shared", st)
		}
	}
}

// BenchmarkSweepSequential is the pre-engine execution model: the same
// jobs, strictly one at a time.
func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepParallel fans the sweep out across all cores.
func BenchmarkSweepParallel(b *testing.B) {
	b.Logf("GOMAXPROCS = %d", runtime.GOMAXPROCS(0))
	benchmarkSweep(b, 0)
}
