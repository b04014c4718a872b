package photonrail

import (
	"context"
	"fmt"
	"testing"
)

// warmRowsSink keeps BenchmarkWarmGridRows's result live.
var warmRowsSink *ExperimentResult

// BenchmarkWarmGridRows times one warm fig8-5d request through the
// engine alone: the grid experiment, under a unique grid name per op,
// as a daemon runs an exp_req for it, with no network and no
// rendering. The warm-up fills the memo and the plan table outside the
// timer, so its allocs/op is the engine's share of a warm request.
func BenchmarkWarmGridRows(b *testing.B) {
	en := NewEngine(0)
	grid, _ := Lookup("grid")
	spec := SpecOfGrid(Fig8Grid5D())
	ctx := context.Background()
	request := func(i int) {
		spec.Name = fmt.Sprintf("warm-%d", i)
		res, err := grid.Run(ctx, en, Params{Grid: &spec})
		if err != nil {
			b.Fatal(err)
		}
		warmRowsSink = res
	}
	request(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}
