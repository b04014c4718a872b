package photonrail

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestSweepParallelDeterminism is the engine's core contract: a
// parallel sweep must produce results byte-identical to the sequential
// run, and the shared electrical baseline must be served from cache
// for every point after the first (≥ 1 hit per sweep).
func TestSweepParallelDeterminism(t *testing.T) {
	w := PaperWorkload(2)
	lats := []float64{0, 10, 100, 1000}

	seq := NewEngine(1)
	seqPoints, err := seq.SweepReconfigLatencyCtx(context.Background(), w, lats)
	if err != nil {
		t.Fatal(err)
	}
	par := NewEngine(8)
	parPoints, err := par.SweepReconfigLatencyCtx(context.Background(), w, lats)
	if err != nil {
		t.Fatal(err)
	}

	seqJSON, err := json.Marshal(seqPoints)
	if err != nil {
		t.Fatal(err)
	}
	parJSON, err := json.Marshal(parPoints)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("parallel sweep diverged from sequential:\nseq: %s\npar: %s", seqJSON, parJSON)
	}

	for name, en := range map[string]*Engine{"sequential": seq, "parallel": par} {
		st := en.CacheStats()
		if st.Hits < 1 {
			t.Errorf("%s engine: %d cache hits, want ≥ 1 (shared baseline)", name, st.Hits)
		}
		// Staged-pipeline accounting over L latency points:
		//   Time hits:  L-1 baseline refetches + L reactive fetches by
		//               the Provision stage (shared with the sweep's
		//               reactive column)
		//   Build hits: the workload's one program, compiled by the
		//               baseline, refetched by L reactive runs + L
		//               Provision-stage passes
		// for 4L-1 hits total; anything else means a shared sub-result
		// was re-simulated or re-compiled.
		if want := uint64(4*len(lats) - 1); st.Hits != want {
			t.Errorf("%s engine: %d hits, want %d (staged sharing across %d points)",
				name, st.Hits, want, len(lats))
		}
		if want := uint64(2*len(lats) - 1); st.Time.Hits != want {
			t.Errorf("%s engine: %d time-stage hits, want %d", name, st.Time.Hits, want)
		}
		if want := uint64(2 * len(lats)); st.Build.Misses != 1 || st.Build.Hits != want {
			t.Errorf("%s engine: %d programs compiled and %d refetched, want 1 and %d (one program for every fabric)",
				name, st.Build.Misses, st.Build.Hits, want)
		}
	}
}

// TestSweepZeroLatencySimulated is the regression test for the
// documented claim that the photonic fabric at zero switching latency
// reproduces the electrical baseline exactly — the latency-0 point must
// be simulated, not hard-coded to 1.0.
func TestSweepZeroLatencySimulated(t *testing.T) {
	w := PaperWorkload(2)

	base, err := Simulate(w, Fabric{Kind: ElectricalRail})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := Simulate(w, Fabric{Kind: PhotonicRail, ReconfigLatencyMS: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ph.MeanIterationSeconds != base.MeanIterationSeconds {
		t.Errorf("photonic @0ms iteration %v != electrical %v",
			ph.MeanIterationSeconds, base.MeanIterationSeconds)
	}

	en := NewEngine(2)
	points, err := en.SweepReconfigLatencyCtx(context.Background(), w, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	p := points[0]
	if p.Reactive != 1 || p.Provisioned != 1 {
		t.Errorf("latency-0 point = %+v, want exactly 1.0/1.0 from simulation", p)
	}
	// Simulated, not fabricated: the zero-latency photonic runs really
	// happened (3 distinct jobs: baseline, reactive, provisioned) and
	// their telemetry shows reconfiguration activity.
	if st := en.CacheStats(); st.Misses < 3 {
		t.Errorf("only %d simulations ran; latency-0 point looks hard-coded", st.Misses)
	}
	if p.ReactiveReconfigs == 0 {
		t.Error("latency-0 reactive run reports no reconfigurations; was it simulated?")
	}
}

// TestEngineCacheSharedAcrossExperiments checks reuse beyond one sweep:
// a second sweep on the same engine re-simulates nothing.
func TestEngineCacheSharedAcrossExperiments(t *testing.T) {
	w := PaperWorkload(1)
	en := NewEngine(4)
	first, err := en.SweepReconfigLatencyCtx(context.Background(), w, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	misses := en.CacheStats().Misses
	second, err := en.SweepReconfigLatencyCtx(context.Background(), w, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if st := en.CacheStats(); st.Misses != misses {
		t.Errorf("second sweep simulated %d new jobs, want 0", st.Misses-misses)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Error("cached sweep diverged from original")
	}
}

func TestEngineWorkersDefault(t *testing.T) {
	if w := NewEngine(0).Workers(); w < 1 {
		t.Errorf("workers = %d", w)
	}
	if w := NewEngine(3).Workers(); w != 3 {
		t.Errorf("workers = %d, want 3", w)
	}
	if DefaultEngine() == nil || DefaultEngine().Workers() < 1 {
		t.Error("default engine unusable")
	}
}

func TestAnalyzeWindowsRejectsEmptyTrace(t *testing.T) {
	w := PaperWorkload(0)
	if _, err := AnalyzeWindows(w); err == nil || !strings.Contains(err.Error(), "iteration") {
		t.Errorf("0-iteration workload: err = %v, want iteration error", err)
	}
	w.Iterations = -3
	if _, err := AnalyzeWindows(w); err == nil {
		t.Error("negative iterations accepted")
	}
}

// TestAnalyzeWindowsEngineCache checks the traced baseline is simulated
// once per workload per engine.
func TestAnalyzeWindowsEngineCache(t *testing.T) {
	en := NewEngine(2)
	w := PaperWorkload(2)
	rep1, err := en.AnalyzeWindowsCtx(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	misses := en.CacheStats().Misses
	rep2, err := en.AnalyzeWindowsCtx(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if st := en.CacheStats(); st.Misses != misses {
		t.Error("second analysis re-simulated the traced baseline")
	}
	if rep1.FractionOver1ms != rep2.FractionOver1ms {
		t.Error("cached analysis diverged")
	}
	// The breakdown must only contain classes that actually had windows.
	for class, bytes := range rep1.BreakdownBytes {
		if bytes < 0 {
			t.Errorf("class %q has negative mean volume", class)
		}
		found := false
		for _, b := range rep1.Breakdown.Buckets() {
			if b.Label == class && b.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("class %q has volume but no windows", class)
		}
	}
}

// TestCostComparisonEngine checks the engine path returns the same rows
// as a direct evaluation and memoizes them.
func TestCostComparisonEngine(t *testing.T) {
	en := NewEngine(4)
	rows, err := en.CostComparisonCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].GPUs != 1024 || rows[3].GPUs != 8192 {
		t.Fatalf("rows = %+v", rows)
	}
	misses := en.CacheStats().Misses
	again, err := en.CostComparisonCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := en.CacheStats(); st.Misses != misses {
		t.Error("second comparison recomputed BOM rows")
	}
	a, _ := json.Marshal(rows)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Error("cached comparison diverged")
	}
}
