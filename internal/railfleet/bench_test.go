package railfleet

import (
	"context"
	"fmt"
	"testing"

	"photonrail/internal/scenario"
)

// benchSpec is the swept grid: the full fig8-5d fan-out normally, a
// six-workload slice of it under -short (CI runs -short -benchtime 1x).
func benchSpec(short bool) scenario.Spec {
	if !short {
		return scenario.SpecOf(scenario.Fig8Grid5D())
	}
	return scenario.Spec{
		Name:   "bench-small",
		Models: []string{"Llama3-8B", "Mixtral-8x7B"},
		Parallelisms: []scenario.Parallelism{
			{TP: 4, DP: 2, PP: 2}, {TP: 2, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2},
		},
		Fabrics:     []string{"electrical", "photonic"},
		LatenciesMS: []float64{5},
		Iterations:  1,
	}
}

// BenchmarkFleetGrid measures one cold grid fan-out through the
// coordinator — 1 vs 3 in-process backends, each fleet built fresh per
// iteration so every run pays full simulation cost (the quantity the
// fleet exists to parallelize). The 1-backend case is the
// single-daemon baseline the speedup is read against.
func BenchmarkFleetGrid(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			spec := benchSpec(testing.Short())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fl := newFleet(b, n, DefaultInFlight)
				c, err := fl.dial()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				_ = c.Close()
				fl.stop()
				b.StartTimer()
			}
		})
	}
}

// warmSink keeps BenchmarkWarmFleetGridRequest's result live.
var warmSink string

// BenchmarkWarmFleetGridRequest is BenchmarkWarmGridRequest through a
// fleet: one warm fig8-5d JSON request at a time, each under a unique
// grid name so no two coalesce, through the coordinator and two
// in-process backends. The warm-up fills both backends' memos outside
// the timer, so the time and allocations measure the fleet request
// path: admission, fan-out, the backends' cell batches, the splice of
// their rows, framing and JSON.
func BenchmarkWarmFleetGridRequest(b *testing.B) {
	fl := newFleet(b, 2, DefaultInFlight)
	defer fl.stop()
	c, err := fl.dial()
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	request := func(i int) {
		spec.Name = fmt.Sprintf("warm-%d", i)
		run, err := c.RunExperiment(ctx, gridReq(spec), nil)
		if err != nil {
			b.Fatal(err)
		}
		if warmSink, err = run.Render("json"); err != nil {
			b.Fatal(err)
		}
	}
	request(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}
