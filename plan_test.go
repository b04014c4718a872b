package photonrail

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonrail/internal/exp"
	"photonrail/internal/model"
)

// holdPool takes every one of en's pool slots with a job that waits on
// a gate, and returns once all are held. release opens the gate and
// waits for the jobs to leave; it may be called more than once.
func holdPool(t *testing.T, en *Engine) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	done := make(chan struct{})
	var held sync.WaitGroup
	held.Add(en.Workers())
	go func() {
		defer close(done)
		_, _ = exp.MapProgressCtx(context.Background(), en.pool, en.Workers(), func(context.Context, int) (struct{}, error) {
			held.Done()
			<-gate
			return struct{}{}, nil
		}, nil)
	}()
	held.Wait()
	var once sync.Once
	return func() { once.Do(func() { close(gate); <-done }) }
}

// warmFig8 is a two-worker engine whose memo holds every fig8-5d cell,
// shared by the tests that need a warm grid, so a -count run warms it
// once.
var warmFig8 struct {
	once sync.Once
	en   *Engine
	err  error
}

func warmFig8Engine(t *testing.T) *Engine {
	t.Helper()
	warmFig8.once.Do(func() {
		warmFig8.en = NewEngine(2)
		_, warmFig8.err = warmFig8.en.RunGrid(context.Background(), Fig8Grid5D(), nil)
	})
	if warmFig8.err != nil {
		t.Fatal(warmFig8.err)
	}
	return warmFig8.en
}

// coldLatency hands out a reconfiguration latency no earlier call did,
// so each use of the shared warm engine gets cells it has not seen.
var coldLatency atomic.Int64

// TestWarmGridNeedsNoPoolSlot: with every pool slot held, a fully warm
// fig8-5d completes through RunGrid and through RunCellRowsCtx, both
// serving each cell's one cached row, and the same request with one
// cold cell does not complete until the slots are released.
func TestWarmGridNeedsNoPoolSlot(t *testing.T) {
	en := warmFig8Engine(t)
	release := holdPool(t, en)
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	g := Fig8Grid5D()
	g.Name = "warm-held"
	res, err := en.RunGrid(ctx, g, nil)
	if err != nil {
		t.Fatalf("warm RunGrid with the pool held: %v", err)
	}
	rows := res.Rows.(GridRows).Cells
	if len(rows) != 48 {
		t.Fatalf("rows = %d, want 48", len(rows))
	}
	all := make([]int, len(rows))
	for i := range all {
		all[i] = len(all) - 1 - i
	}
	subset, err := en.RunCellRowsCtx(ctx, g, all, nil)
	if err != nil {
		t.Fatalf("warm RunCellRowsCtx with the pool held: %v", err)
	}
	// The same cached row: its fields, and the very bytes RunGrid joined.
	for i, idx := range all {
		if subset[i].Row != rows[idx] || &subset[i].JSON[0] != &res.rowJSON[idx][0] {
			t.Fatalf("subset row %d is not the grid's row %d", i, idx)
		}
	}

	// The same grid at one more latency: request every warm cell and
	// one cold photonic cell.
	lat := float64(1000 + coldLatency.Add(1))
	g.LatenciesMS = append(g.LatenciesMS, lat)
	var indices []int
	cold := -1
	for i, c := range g.Expand() {
		switch {
		case c.LatencyMS != lat:
			indices = append(indices, i)
		case cold < 0 && c.Fabric == GridPhotonic && c.Skip() == "":
			cold = i
			indices = append(indices, i)
		}
	}
	errc := make(chan error, 1)
	go func() {
		_, err := en.RunCellRowsCtx(ctx, g, indices, nil)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("a request with cold cell %d completed with the pool held (err %v)", cold, err)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestColdGridRunsWorkersCellsAtOnce: a cold grid still fans out, and
// runs exactly as many cells at once as the pool has workers. Each
// cell's baseline is a gated computation already in flight, so a cell
// the pool runs joins it, counts a hit, and waits there.
func TestColdGridRunsWorkersCellsAtOnce(t *testing.T) {
	en := NewEngine(2)
	g := Grid{
		Name:    "gated",
		Fabrics: []GridFabricKind{GridElectrical},
		Parallelisms: []GridParallelism{
			{TP: 4, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2}, {TP: 2, DP: 2, PP: 2},
			{TP: 2, DP: 4, PP: 2}, {TP: 8, DP: 1, PP: 2},
		},
		Iterations: 1,
	}
	p, err := en.planFor(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var openOnce sync.Once
	open := func() { openOnce.Do(func() { close(gate) }) }
	var gated sync.WaitGroup
	for i := range p.cells {
		gated.Add(1)
		go func(key string) {
			defer gated.Done()
			_, _ = en.pool.DoCostCtx(context.Background(), key, 1, func(context.Context) (any, error) {
				<-gate
				return &Result{MeanIterationSeconds: 1}, nil
			})
		}(p.cells[i].base)
	}
	defer gated.Wait()
	defer open()
	waitUntil(t, "the gated baselines to start", func() bool {
		return en.CacheStats().InFlight == int64(len(p.cells))
	})
	errc := make(chan error, 1)
	go func() {
		_, err := en.RunGrid(context.Background(), g, nil)
		errc <- err
	}()
	workers := uint64(en.Workers())
	waitUntil(t, "the pool to fill", func() bool { return en.CacheStats().Hits == workers })
	time.Sleep(50 * time.Millisecond)
	if hits := en.CacheStats().Hits; hits != workers {
		t.Fatalf("%d cells ran at once on a %d-worker pool", hits, workers)
	}
	open()
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if st := en.CacheStats(); st.Hits != uint64(len(p.cells)) {
		t.Errorf("hits = %d, want one per cell (%d)", st.Hits, len(p.cells))
	}
}

// waitUntil polls cond until it holds or five seconds pass.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCellDriverCancel: a context cancelled before the inline pass, or
// during it, returns ctx.Err(), on a warm grid and on a cold one.
func TestCellDriverCancel(t *testing.T) {
	warm := warmFig8Engine(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := warm.RunGrid(cancelled, Fig8Grid5D(), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("warm grid under a cancelled context: err = %v, want context.Canceled", err)
	}
	cold := NewEngine(1)
	if _, err := cold.RunGrid(cancelled, smallGrid(), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cold grid under a cancelled context: err = %v, want context.Canceled", err)
	}
	if st := cold.CacheStats(); st.Misses != 0 {
		t.Errorf("a cancelled cold grid computed %d results", st.Misses)
	}

	for _, at := range []int{1, 47, 48} {
		ctx, cancel := context.WithCancel(context.Background())
		ticks := 0
		_, err := warm.RunGrid(ctx, Fig8Grid5D(), func(done, _ int) {
			if ticks++; done == at {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at inline tick %d: err = %v, want context.Canceled", at, err)
		}
		if ticks != at {
			t.Errorf("cancelled at inline tick %d: %d cells ticked", at, ticks)
		}
	}
}

// TestInlineMemoizedErrorSkipsPool: a memoized error found by an
// inline lookup, on a cell's baseline or on its own fabric, is
// returned as the pool path would report it, and with every pool slot
// held, so the pool never started.
func TestInlineMemoizedErrorSkipsPool(t *testing.T) {
	boom := errors.New("boom")
	g := Grid{Name: "err", Fabrics: []GridFabricKind{GridElectrical, GridPhotonic}, LatenciesMS: []float64{5}, Iterations: 1}
	for _, tc := range []struct {
		name string
		// memoize fills memo entries of cell 1, the photonic cell, and
		// no others.
		memoize func(en *Engine, pc *plannedCell)
		want    string
	}{
		{"baseline", func(en *Engine, pc *plannedCell) {
			_, _ = en.pool.DoCostCtx(context.Background(), pc.base, 1, func(context.Context) (any, error) { return nil, boom })
		}, "photonrail: cell Llama3-8B/A100/tp4-dp2-pp2/1F1B/photonic@5ms baseline: boom"},
		{"fabric", func(en *Engine, pc *plannedCell) {
			_, _ = en.pool.DoCostCtx(context.Background(), pc.base, 1, func(context.Context) (any, error) { return &Result{MeanIterationSeconds: 1}, nil })
			_, _ = en.pool.DoCostCtx(context.Background(), pc.key, 1, func(context.Context) (any, error) { return nil, boom })
		}, "photonrail: cell Llama3-8B/A100/tp4-dp2-pp2/1F1B/photonic@5ms: boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			en := NewEngine(1)
			p, err := en.planFor(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.memoize(en, &p.cells[1])
			misses := en.CacheStats().Misses
			release := holdPool(t, en)
			defer release()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err = en.RunCellRowsCtx(ctx, g, []int{1, 0}, nil)
			if !errors.Is(err, boom) || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if st := en.CacheStats(); st.Misses != misses {
				t.Errorf("the failing grid computed %d results", st.Misses-misses)
			}
		})
	}
}

// TestCellDriverProgress: ticks run 1..n, strictly rising, on a grid
// whose warm cells are served inline and whose cold cells go to the
// pool, through the whole-grid entry and through the subset entry
// asked for every cell. The inline cells tick first, before any
// computation, and the pool's ticks continue the count.
func TestCellDriverProgress(t *testing.T) {
	for _, path := range []struct {
		name string
		run  func(en *Engine, g Grid, onCell func(done, total int)) error
	}{
		{"RunGrid", func(en *Engine, g Grid, onCell func(done, total int)) error {
			_, err := en.RunGrid(context.Background(), g, onCell)
			return err
		}},
		{"RunCellRowsCtx", func(en *Engine, g Grid, onCell func(done, total int)) error {
			every := make([]int, len(g.Expand()))
			for i := range every {
				every[i] = i
			}
			_, err := en.RunCellRowsCtx(context.Background(), g, every, onCell)
			return err
		}},
	} {
		run := path.run
		t.Run(path.name, func(t *testing.T) {
			en := NewEngine(2)
			g := smallGrid()
			g.LatenciesMS = []float64{5}
			if err := run(en, g, nil); err != nil {
				t.Fatal(err)
			}
			g.LatenciesMS = []float64{5, 20}
			inline := 0
			for _, c := range g.Expand() {
				if c.LatencyMS != 20 {
					inline++
				}
			}
			n := len(g.Expand())
			before := en.CacheStats().Misses
			var mu sync.Mutex
			var ticks []int
			var computed []bool
			err := run(en, g, func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if total != n {
					t.Errorf("total = %d, want %d", total, n)
				}
				ticks = append(ticks, done)
				computed = append(computed, en.CacheStats().Misses != before)
			})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			want := make([]int, n)
			for i := range want {
				want[i] = i + 1
			}
			if !reflect.DeepEqual(ticks, want) {
				t.Fatalf("ticks = %v, want %v", ticks, want)
			}
			for i := 0; i < inline; i++ {
				if computed[i] {
					t.Errorf("tick %d came after a computation; the %d inline cells tick first", i+1, inline)
				}
			}
			if !computed[n-1] {
				t.Error("the last tick came before any cold cell was computed")
			}
		})
	}
}

// TestCacheStatsPinned pins CacheStats, field for field, over a
// request sequence that is cold, partly warm and fully warm, on a
// one-worker and a two-worker engine. The values were read at the
// commit before grid cells were served inline, where every cell went
// to the pool: serving them inline must count each memo lookup as that
// path did.
//
// The Build columns, and the totals with them, are one-build values: a
// workload compiles once for every fabric. Build is asked once per Time
// miss and once per Provision miss and misses once per workload, and
// fig8-5d has five (Llama3-8B 3D and 4D, Mixtral-8x7B 3D, 4D and 5D).
// Phase 1 (1 ms) makes 10 Time misses (5 baselines + 5 photonic) and 5
// Provision misses: 15 Build lookups, 5 misses and 10 hits. Phase 2
// adds 10 + 10 more lookups, all hits (30/5). Phases 3 and 4 miss
// nothing, so they ask Build nothing.
func TestCacheStatsPinned(t *testing.T) {
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
		stats(25, 20, 10, 5, 0, 5, 15, 10, 0, 5),
		stats(100, 40, 30, 5, 5, 15, 65, 20, 4, 11),
		stats(165, 40, 30, 5, 20, 15, 115, 20, 4, 11),
		stats(230, 40, 30, 5, 35, 15, 165, 20, 4, 11),
	}
	grid, _ := Lookup("grid")
	sub := SpecOfGrid(Fig8Grid5D())
	sub.Name = "fig8-5d-1ms"
	sub.LatenciesMS = []float64{1}
	full := SpecOfGrid(Fig8Grid5D())
	renamed := full
	renamed.Name = "fig8-5d-again"
	for _, workers := range []int{1, 2} {
		en := NewEngine(workers)
		phases := []func() error{
			func() error { _, err := grid.Run(context.Background(), en, Params{Grid: &sub}); return err },
			func() error { _, err := grid.Run(context.Background(), en, Params{Grid: &full}); return err },
			func() error { _, err := grid.Run(context.Background(), en, Params{Grid: &renamed}); return err },
			func() error { _, err := en.RunGrid(context.Background(), Fig8Grid5D(), nil); return err },
		}
		for i, phase := range phases {
			if err := phase(); err != nil {
				t.Fatal(err)
			}
			if got := en.CacheStats(); got != want[i] {
				t.Errorf("NewEngine(%d), phase %d: CacheStats() =\n %+v\nwant\n %+v", workers, i+1, got, want[i])
			}
		}
	}
}

// TestPlanKeyCarriesModelsByValue: a custom model that shares a
// preset's name but not its layers gets its own plan, so its rows are
// its own, equal to a fresh engine's. A plan keyed by the grid's wire
// spec, which carries models by name, would serve it the preset's
// rows.
func TestPlanKeyCarriesModelsByValue(t *testing.T) {
	preset := Grid{
		Name:        "preset",
		Models:      []model.Spec{model.Llama3_8B},
		Fabrics:     []GridFabricKind{GridElectrical, GridPhotonic},
		LatenciesMS: []float64{5},
		Iterations:  1,
	}
	custom := preset
	custom.Name = "custom"
	m := model.Llama3_8B
	m.Layers = 16
	custom.Models = []model.Spec{m}

	en := NewEngine(0)
	gridRowsOf(t, en, preset)
	got := gridRowsOf(t, en, custom)
	want := gridRowsOf(t, NewEngine(0), custom)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("the custom model's rows diverged from a fresh engine's:\n got: %+v\nwant: %+v", got, want)
	}
	if planKey(custom) == planKey(preset) {
		t.Error("the custom model's grid shares the preset's plan key")
	}
}

// TestPlanTableBounded: however many distinct grids an engine plans,
// its plan table holds at most maxPlanCells cells; a grid with more
// cells than that is planned and runs, but is not stored.
func TestPlanTableBounded(t *testing.T) {
	en := NewEngine(1)
	latencies := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for i := 0; i < 40; i++ {
		g := Grid{Fabrics: []GridFabricKind{GridPhotonic}, LatenciesMS: latencies(300), Iterations: i + 1}
		if _, err := en.planFor(g, nil); err != nil {
			t.Fatal(err)
		}
		en.planMu.Lock()
		held, sum := en.planCells, 0
		for _, p := range en.plans {
			sum += len(p.cells)
		}
		en.planMu.Unlock()
		if held > maxPlanCells || held != sum {
			t.Fatalf("after grid %d the table holds %d cells (counted %d), cap %d", i, sum, held, maxPlanCells)
		}
	}

	// Every cell of a dense model's EP coordinate is skipped, so the
	// big grid runs without simulating.
	big := Grid{
		Name:         "big",
		Fabrics:      []GridFabricKind{GridPhotonic},
		LatenciesMS:  latencies(maxPlanCells + 1),
		Parallelisms: []GridParallelism{{TP: 4, DP: 1, EP: 2, PP: 2}},
	}
	en.planMu.Lock()
	held := en.planCells
	en.planMu.Unlock()
	rows := gridRowsOf(t, en, big)
	skipped := 0
	for _, row := range rows {
		if row.Status == "skip" {
			skipped++
		}
	}
	if len(rows) != maxPlanCells+1 || skipped != len(rows) {
		t.Fatalf("big grid: %d cells, %d skipped; want %d, all skipped", len(rows), skipped, maxPlanCells+1)
	}
	if !strings.Contains(rows[maxPlanCells].SkipReason, "mixture-of-experts") {
		t.Errorf("last cell's skip reason = %q", rows[maxPlanCells].SkipReason)
	}
	en.planMu.Lock()
	defer en.planMu.Unlock()
	if _, stored := en.plans[planKey(big)]; stored || en.planCells != held {
		t.Errorf("a grid above the cap was stored (table %d cells, was %d)", en.planCells, held)
	}
}

// TestSkippedRowRenderedOnFirstUse: a skipped cell's row is rendered
// by the first request for it, not when the plan is built; a stored
// plan then serves the same row to every later request.
func TestSkippedRowRenderedOnFirstUse(t *testing.T) {
	en := NewEngine(1)
	// A dense model has no EP coordinate, so every cell is skipped.
	g := Grid{
		Fabrics:      []GridFabricKind{GridPhotonic},
		LatenciesMS:  []float64{1, 2},
		Parallelisms: []GridParallelism{{TP: 4, DP: 1, EP: 2, PP: 2}},
	}
	p, err := en.planFor(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.cells {
		if p.cells[i].skip == "" {
			t.Fatalf("cell %d is feasible; want every cell skipped", i)
		}
		if p.cells[i].row.Load() != nil {
			t.Fatalf("planning rendered skipped cell %d's row", i)
		}
	}
	first, err := en.RunCellRowsCtx(context.Background(), g, p.all, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := en.RunCellRowsCtx(context.Background(), g, p.all, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.cells {
		if first[i] == nil || first[i] != second[i] || p.cells[i].row.Load() != first[i] {
			t.Fatalf("cell %d: rows %p then %p, plan holds %p; want one row", i, first[i], second[i], p.cells[i].row.Load())
		}
	}
}
