package photonrail

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// resetGrid is a cheap 4-cell grid used by the reset/bounded tests.
func resetGrid() Grid {
	return Grid{
		Name:        "reset-race",
		Fabrics:     []GridFabricKind{GridElectrical, GridPhotonic},
		LatenciesMS: []float64{1, 10, 100},
		Iterations:  1,
	}
}

// resetGridJSON runs resetGrid on en and returns its JSON rendering.
func resetGridJSON(t *testing.T, en *Engine) string {
	t.Helper()
	res, err := en.RunGrid(context.Background(), resetGrid(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestResetCacheDuringParallelGrid is the regression test for the
// ResetCache/in-flight race: hammering ResetCache while a parallel grid
// runs must lose no cell (every caller resolves with the right value)
// and duplicate no in-flight simulation (singleflight holds across the
// reset), so the result stays byte-identical to an undisturbed run.
func TestResetCacheDuringParallelGrid(t *testing.T) {
	want := resetGridJSON(t, NewEngine(4))

	for trial := 0; trial < 3; trial++ {
		en := NewEngine(4)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					en.ResetCache()
				}
			}
		}()
		res, err := en.RunGrid(context.Background(), resetGrid(), nil)
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var got strings.Builder
		if err := res.RenderJSON(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want {
			t.Fatalf("trial %d: grid under ResetCache hammering diverged\ngot:  %s\nwant: %s", trial, got.String(), want)
		}
		if st := en.CacheStats(); st.InFlight != 0 {
			t.Fatalf("trial %d: inflight = %d after grid completed", trial, st.InFlight)
		}
	}
}

// TestBoundedEngineEvictsAndReports exercises the daemon-facing cache
// bound: a tiny budget forces evictions on a grid with more distinct
// simulations than the cap, the telemetry reports them, and results are
// still byte-identical to an unbounded engine's.
func TestBoundedEngineEvictsAndReports(t *testing.T) {
	want := resetGridJSON(t, NewEngine(2))
	en := NewBoundedEngine(2, 1) // at most one cached simulation
	if got := resetGridJSON(t, en); got != want {
		t.Fatalf("bounded engine diverged\ngot:  %s\nwant: %s", got, want)
	}
	st := en.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a 1-unit cap", st)
	}
	if st.Misses == 0 {
		t.Fatalf("stats = %+v, want misses", st)
	}
}
