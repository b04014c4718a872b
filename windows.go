package photonrail

import (
	"context"
	"fmt"

	"photonrail/internal/metrics"
	"photonrail/internal/topo"
	"photonrail/internal/trace"
)

// WindowReport is the Fig. 3 / Fig. 4 analysis of one workload's trace
// on the fully-connected baseline (windows are a property of the
// workload, measured — like the paper's Perlmutter trace — on an
// electrical fabric).
type WindowReport struct {
	// PerRailCDF maps each rail to the CDF of positive window sizes in
	// milliseconds over all iterations (Fig. 4a).
	PerRailCDF map[int]*metrics.CDF
	// Breakdown is the rail-0 per-class window count and mean size for
	// one steady-state iteration (Fig. 4b); bucket samples are window
	// sizes in ms.
	Breakdown *metrics.ClassifiedHistogram
	// BreakdownBytes maps each Fig. 4b class to the mean traffic volume
	// (bytes) following its windows.
	BreakdownBytes map[string]float64
	// FractionOver1ms is the fraction of positive windows exceeding 1 ms
	// across rails (paper: >75%).
	FractionOver1ms float64
	// Windows holds the raw rail-0 windows of the analyzed iteration, in
	// time order (the Fig. 3 arrows).
	Windows []trace.Window
	// Trace is the full recorded trace for custom analysis (Fig. 3
	// timelines).
	Trace *trace.Trace
}

// AnalyzeWindows runs the workload on the electrical baseline with
// tracing and extracts the inter-parallelism windows. The workload
// should have ≥ 2 iterations; the paper uses 10 and analyzes the CDF
// over all of them, with the per-class breakdown taken from a single
// steady-state iteration.
//
// The traced baseline run goes through DefaultEngine's cache, so
// repeated analyses of the same workload simulate it once.
func AnalyzeWindows(w Workload) (*WindowReport, error) {
	return DefaultEngine().AnalyzeWindowsCtx(context.Background(), w)
}

// AnalyzeWindowsCtx is the engine form of the package-level
// AnalyzeWindows: the traced simulation is memoized per workload, the
// analysis itself is recomputed and each report gets its own copy of
// the trace, so callers may freely mutate the report without
// corrupting the cache. A cancelled caller returns ctx.Err() promptly,
// while a traced simulation shared with other callers keeps running
// for them (see SimulateCtx).
func (en *Engine) AnalyzeWindowsCtx(ctx context.Context, w Workload) (*WindowReport, error) {
	if w.Iterations < 1 {
		return nil, fmt.Errorf("photonrail: need at least one iteration")
	}
	inner, err := en.simulateTracedCtx(ctx, w)
	if err != nil {
		return nil, err
	}
	if inner.Trace == nil || inner.Trace.Iterations() == 0 {
		return nil, fmt.Errorf("photonrail: trace has no iterations to analyze")
	}
	tr := inner.Trace.Clone()
	rep := &WindowReport{
		PerRailCDF:     make(map[int]*metrics.CDF),
		Breakdown:      metrics.NewClassifiedHistogram(trace.Classes()...),
		BreakdownBytes: make(map[string]float64),
		Trace:          tr,
	}
	var over1, positive int
	for _, r := range tr.Rails() {
		var sizes []float64
		for it := 0; it < tr.Iterations(); it++ {
			ws := tr.Windows(r, it)
			for _, s := range trace.WindowSizesMS(ws) {
				sizes = append(sizes, s)
				positive++
				if s > 1 {
					over1++
				}
			}
		}
		rep.PerRailCDF[int(r)] = metrics.NewCDF(sizes)
	}
	if positive > 0 {
		rep.FractionOver1ms = float64(over1) / float64(positive)
	}
	// Fig. 4b: rail 0, last iteration (steady state).
	iter := tr.Iterations() - 1
	rep.Windows = tr.Windows(topo.RailID(0), iter)
	byteSums := make(map[string]float64)
	byteCounts := make(map[string]int)
	for _, win := range rep.Windows {
		class := trace.ClassifyWindow(win)
		rep.Breakdown.Add(class, win.Size.Milliseconds())
		byteSums[class] += float64(win.After.Bytes)
		byteCounts[class]++
	}
	// byteSums only has keys for classes that had at least one window
	// this iteration, so classes with no windows are skipped and every
	// division is by a count >= 1.
	for class, sum := range byteSums {
		rep.BreakdownBytes[class] = sum / float64(byteCounts[class])
	}
	return rep, nil
}
