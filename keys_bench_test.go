package photonrail

import (
	"testing"

	"photonrail/internal/scenario"
)

// keySink keeps BenchmarkCellKeys's keys live.
var keySink string

// BenchmarkCellKeys derives every key a fig8-5d request computes when
// its grid is not yet planned, with no simulation behind them: the
// request's ExperimentKey, then, for each of the grid's 48 cells, what
// planning the cell derives (its workload encoded once, its electrical
// baseline's Time key, and its own Time or Provision key). A request
// whose plan is in the engine's plan table derives only the
// ExperimentKey; its allocs/op pins the key path of a grid's first
// request.
func BenchmarkCellKeys(b *testing.B) {
	cells := Fig8Grid5D().Expand()
	spec := SpecOfGrid(Fig8Grid5D())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = ExperimentKey("fig8-5d", Params{Grid: &spec})
		for _, c := range cells {
			if c.Skip() != "" {
				continue
			}
			k := keysOf(gridWorkload(c))
			keySink = k.time(Fabric{Kind: ElectricalRail})
			switch c.Fabric {
			case scenario.Photonic:
				keySink = k.time(Fabric{Kind: PhotonicRail, ReconfigLatencyMS: c.LatencyMS})
			case scenario.PhotonicProvisioned:
				keySink = k.provision(c.LatencyMS)
			case scenario.PhotonicStatic:
				keySink = k.time(Fabric{Kind: PhotonicStaticPartition})
			}
		}
	}
}
