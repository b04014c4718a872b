package photonrail

import (
	"context"
	"fmt"

	"photonrail/internal/exp"
)

// SweepPoint is one x-axis point of Fig. 8: the iteration time of the
// photonic fabric at a given reconfiguration latency, normalized to the
// fully-connected (electrical) baseline, with and without provisioning.
type SweepPoint struct {
	// LatencyMS is the OCS switching latency.
	LatencyMS float64
	// Reactive is normalized iteration time without provisioning.
	Reactive float64
	// Provisioned is normalized iteration time with provisioning.
	Provisioned float64
	// ReactiveReconfigs and ProvisionedReconfigs count physical
	// reconfigurations per run.
	ReactiveReconfigs, ProvisionedReconfigs int
}

// PaperLatenciesMS returns Fig. 8's x-axis: reconfiguration latencies in
// milliseconds. Latency 0 is the baseline itself.
func PaperLatenciesMS() []float64 {
	return []float64{0, 0.1, 1, 5, 10, 20, 50, 100, 200, 500, 1000}
}

// SweepReconfigLatency regenerates Fig. 8: it simulates the workload on
// the electrical baseline once, then on photonic rails at each latency,
// reactive and provisioned, and reports normalized mean iteration times.
// The latency-0 point is simulated like any other; the photonic fabric
// at zero switching latency reproduces the baseline timing exactly, so
// it normalizes to exactly 1.0.
//
// The sweep runs on DefaultEngine: latency points simulate in parallel
// and the shared electrical baseline is simulated exactly once per
// batch. Output is deterministic and identical to a sequential run.
func SweepReconfigLatency(w Workload, latenciesMS []float64) ([]SweepPoint, error) {
	return DefaultEngine().SweepReconfigLatencyCtx(context.Background(), w, latenciesMS)
}

// SweepReconfigLatencyCtx is the engine form of the package-level
// SweepReconfigLatency: same semantics, with fan-out bounded by the
// engine's worker count and results shared through its cache. A
// cancelled ctx stops scheduling latency points and returns ctx.Err()
// promptly, and the first point error stops the remaining points
// (fail-fast). Simulations other callers share are never killed by this
// caller's cancellation — see SimulateCtx.
func (en *Engine) SweepReconfigLatencyCtx(ctx context.Context, w Workload, latenciesMS []float64) ([]SweepPoint, error) {
	if len(latenciesMS) == 0 {
		latenciesMS = PaperLatenciesMS()
	}
	return exp.MapProgressCtx(ctx, en.pool, len(latenciesMS), func(ctx context.Context, i int) (SweepPoint, error) {
		lat := latenciesMS[i]
		// Every point fetches the baseline through the cache: the first
		// request simulates it, the rest share the result.
		base, err := en.SimulateCtx(ctx, w, Fabric{Kind: ElectricalRail})
		if err != nil {
			return SweepPoint{}, fmt.Errorf("photonrail: baseline: %w", err)
		}
		baseIter := base.MeanIterationSeconds
		if baseIter <= 0 {
			return SweepPoint{}, fmt.Errorf("photonrail: degenerate baseline iteration time")
		}
		reactive, err := en.SimulateCtx(ctx, w, Fabric{Kind: PhotonicRail, ReconfigLatencyMS: lat})
		if err != nil {
			return SweepPoint{}, fmt.Errorf("photonrail: latency %vms reactive: %w", lat, err)
		}
		provisioned, err := en.provisionedStableCtx(ctx, w, lat)
		if err != nil {
			return SweepPoint{}, fmt.Errorf("photonrail: latency %vms provisioned: %w", lat, err)
		}
		return SweepPoint{
			LatencyMS:            lat,
			Reactive:             reactive.MeanIterationSeconds / baseIter,
			Provisioned:          provisioned.MeanIterationSeconds / baseIter,
			ReactiveReconfigs:    reactive.Reconfigurations,
			ProvisionedReconfigs: provisioned.Reconfigurations,
		}, nil
	}, nil)
}
