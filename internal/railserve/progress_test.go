package railserve

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// steppingClock is a throttle clock that advances progressInterval per
// reading, so every tick is due and an execution forwards all of them.
func steppingClock() func() time.Time {
	var ns atomic.Int64
	return func() time.Time { return time.Unix(0, ns.Add(int64(progressInterval))) }
}

// TestProgressThrottle drives one grid twice, each time with two
// waiters on one gated execution. Under a frozen clock no tick is ever
// progressInterval past Execute's start, so the waiters get no tick,
// then the result. Under a clock that advances progressInterval per
// reading every tick is due, so each waiter gets all of them, each one
// higher than the last.
func TestProgressThrottle(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "throttle",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	})
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cells := len(grid.Expand())
	every := make([]int, cells)
	for i := range every {
		every[i] = i + 1
	}
	frozen := time.Unix(0, 0)

	s := newTestServer(t, 0, 0)
	clients := []*Client{dialTest(t, s), dialTest(t, s)}
	for round, tc := range []struct {
		name  string
		clock func() time.Time
		want  []int
	}{
		{"frozen", func() time.Time { return frozen }, nil},
		{"stepping", steppingClock(), every},
	} {
		s.setClock(tc.clock)
		gate := make(chan struct{})
		s.setExecGate(gate)
		type outcome struct {
			err   error
			ticks []int
		}
		results := make(chan outcome, len(clients))
		for _, c := range clients {
			go func(c *Client) {
				var mu sync.Mutex
				var ticks []int
				_, err := c.RunExperiment(context.Background(), gridReq(spec), func(done, total int) {
					if total != cells {
						t.Errorf("%s: progress total = %d, want %d", tc.name, total, cells)
					}
					mu.Lock()
					ticks = append(ticks, done)
					mu.Unlock()
				})
				mu.Lock()
				defer mu.Unlock()
				results <- outcome{err, ticks}
			}(c)
		}
		// Both waiters are admitted, so subscribed, before the gate opens:
		// this round's submitted and deduped events follow every earlier
		// round's in the replayed ring.
		var submitted, deduped int
		waitServerEvent(t, s, func(ev telemetry.Event) bool {
			switch {
			case ev.Type == "submitted" && ev.Exp == "grid":
				submitted++
			case ev.Type == "deduped" && ev.Exp == "grid":
				deduped++
			}
			return submitted > round && deduped > round
		})
		close(gate)
		for range clients {
			out := <-results
			if out.err != nil {
				t.Fatalf("%s: %v", tc.name, out.err)
			}
			if !slices.Equal(out.ticks, tc.want) {
				t.Errorf("%s: ticks = %v, want %v", tc.name, out.ticks, tc.want)
			}
		}
	}
}
