package photonrail

import (
	"context"
	"fmt"
	"sync/atomic"

	"photonrail/internal/exp"
	"photonrail/internal/scenario"
	"photonrail/internal/workload"
)

// Grid declares a scenario cross-product: model preset × GPU × fabric
// kind × reconfiguration latency × {TP,DP,PP,CP,EP} × schedule × jitter
// × EagerRS. It is the scenario package's type re-exported, so grids
// are declared with photonrail presets (Llama3_8B, A100, …) and run
// with Engine.RunGrid. See internal/scenario for the expansion and
// feasibility-validation semantics.
type Grid = scenario.Grid

// GridCell is one concrete point of an expanded grid.
type GridCell = scenario.Cell

// GridParallelism is one {TP,DP,PP,CP,EP} coordinate.
type GridParallelism = scenario.Parallelism

// GridSpec is the wire-encodable, name-based form of a Grid: models,
// GPUs, fabrics, and schedules are carried by preset name, so a spec
// marshals to compact JSON and travels the opusnet protocol (it is the
// payload of both a grid experiment's exp_req and the fleet's
// cells_req). Resolve materializes it into a Grid; SpecOfGrid is the
// inverse.
type GridSpec = scenario.Spec

// SpecOfGrid renders a Grid as its wire form.
func SpecOfGrid(g Grid) GridSpec { return scenario.SpecOf(g) }

// GridFabricKind enumerates the fabric realizations a grid sweeps.
type GridFabricKind = scenario.FabricKind

// The sweepable grid fabric kinds. GridPhotonicProvisioned runs the
// provisioned-stable schedule (profile, speculate, keep the fastest);
// GridPhotonicStatic is the C3 baseline and skips cells violating C2.
const (
	GridElectrical          = scenario.Electrical
	GridPhotonic            = scenario.Photonic
	GridPhotonicProvisioned = scenario.PhotonicProvisioned
	GridPhotonicStatic      = scenario.PhotonicStatic
)

// Fig8Grid5D returns the built-in "fig8-5d" grid: the paper's Fig. 8
// workload swept across 5D-parallelism variants on all four fabric
// realizations.
func Fig8Grid5D() Grid { return scenario.Fig8Grid5D() }

// RunGrid expands the grid, reports infeasible cells as skips (with
// reasons), and simulates every feasible cell on the engine's worker
// pool. Each cell's slowdown is normalized to its workload's electrical
// baseline, fetched through the memo cache so one baseline per distinct
// workload is simulated per engine no matter how many cells share it.
// Rows are gathered in expansion order: a parallel run is
// byte-identical to -parallel=1. The result is a grid experiment's
// (see GridExperimentResult), with each row's bytes kept for
// RenderJSON; the grid experiments run here once they have resolved
// their spec, and a grid of non-preset models, which no spec names,
// runs here directly.
//
// onCell, when non-nil, is called after each cell finishes with the
// running count and the total; it must not block. A cancelled ctx
// stops scheduling cells and returns ctx.Err() promptly, and the first
// cell error stops the remaining cells (fail-fast). Simulations shared
// with other engine callers keep running for them. Stragglers may tick
// onCell briefly after an early ctx-cancelled return.
func (en *Engine) RunGrid(ctx context.Context, g Grid, onCell func(done, total int)) (*ExperimentResult, error) {
	p, err := en.planFor(g, nil)
	if err != nil {
		return nil, err
	}
	rows, err := runCells(ctx, en, p, p.all, onCell)
	if err != nil {
		return nil, err
	}
	cells := make([]scenario.Row, len(rows))
	js := make([][]byte, len(rows))
	for i, row := range rows {
		cells[i], js[i] = row.Row, row.JSON
	}
	res := GridExperimentResult(g.Name, cells)
	res.rowJSON = js
	return res, nil
}

// RunCellRowsCtx executes only the cells of g at the given
// expansion-order indices and returns their rows in indices order, each
// with the bytes a grid's JSON rendering carries for it: the
// partial-execution primitive a fleet coordinator shards a grid into,
// and what a daemon serves its cell batches from. Each cell simulates
// exactly as it would inside RunGrid (same memo cache, same
// electrical-baseline normalization, same skip reporting), so the rows
// a fleet merges from disjoint subsets are byte-identical to one full
// local run. Rows come from the engine's row cache (see GridRow): a
// warm cell renders nothing. onCell ticks per completed cell with the
// running count and the subset's size; cancellation and fail-fast
// semantics match RunGrid.
func (en *Engine) RunCellRowsCtx(ctx context.Context, g Grid, indices []int, onCell func(done, total int)) ([]*GridRow, error) {
	p, err := en.planFor(g, indices)
	if err != nil {
		return nil, err
	}
	return runCells(ctx, en, p, indices, onCell)
}

// gridWorkload compiles a cell's coordinates into the Workload the
// engine simulates. The cluster shape is derived: the scale-up domain
// holds TP, and DP·CP·EP·PP fills the nodes.
func gridWorkload(c GridCell) Workload {
	return Workload{
		Model:          c.Model,
		GPU:            c.GPU,
		NumNodes:       c.Par.NumNodes(),
		GPUsPerNode:    c.Par.TP,
		NIC:            c.NIC,
		TP:             c.Par.TP,
		DP:             c.Par.DP,
		PP:             c.Par.PP,
		CP:             c.Par.CP,
		EP:             c.Par.EP,
		Microbatches:   c.Microbatches,
		MicrobatchSize: c.MicrobatchSize,
		Iterations:     c.Iterations,
		EagerRS:        c.EagerRS,
		JitterFrac:     c.JitterFrac,
		UseGPipe:       c.Schedule == workload.GPipe,
	}
}

// gridPlan is everything about a grid's cells that no result decides:
// the expansion and, for each cell, its skip reason or the memo keys
// it reads. It is a function of every Grid field except Name (see
// planKey), so grids that differ only in name share one, and it is
// never written after it is built, apart from the skipped cells' rows
// that cellRow renders into it.
type gridPlan struct {
	cells []plannedCell
	all   []int // 0, 1, …: every cell, in expansion order
}

// plannedCell is one planned cell. A skipped cell keeps its row once
// cellRow has rendered it: the row depends on nothing but the cell and
// its skip reason. A feasible cell's base is its electrical baseline's
// Time key and key its own fabric's Time or Provision key; an
// electrical cell's result is its baseline, so its key is empty.
type plannedCell struct {
	cell      GridCell
	skip      string                  // Skip's reason; "" when the cell is feasible
	row       atomic.Pointer[GridRow] // a skipped cell's row, once rendered
	base, key string
}

// maxPlanCells caps the cells the engine's plan table holds: a plan
// costs about half a kilobyte per cell, more for a skipped cell's row,
// so a cap by plan count would let a few huge grids pin a lot of
// memory. The plan table is purely an optimization: a grid with more
// cells than the cap is planned but not stored, and a table that would
// cross the cap is dropped and started over.
const maxPlanCells = 4096

// planFor validates g, on every call, and returns its plan from the
// engine's plan table, planning and storing it on a miss. It refuses
// indices outside the expansion.
func (en *Engine) planFor(g Grid, indices []int) (*gridPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	key := planKey(g)
	en.planMu.Lock()
	p := en.plans[key]
	en.planMu.Unlock()
	if p == nil {
		var err error
		if p, err = newGridPlan(g); err != nil {
			return nil, err
		}
		en.storePlan(key, p)
	}
	for _, idx := range indices {
		if idx < 0 || idx >= len(p.cells) {
			return nil, fmt.Errorf("photonrail: cell index %d outside grid %q (%d cells)", idx, g.Name, len(p.cells))
		}
	}
	return p, nil
}

// storePlan puts a plan in the plan table unless it alone exceeds the
// cap, emptying the table first when the plan would take it over.
func (en *Engine) storePlan(key string, p *gridPlan) {
	n := len(p.cells)
	if n > maxPlanCells {
		return
	}
	en.planMu.Lock()
	defer en.planMu.Unlock()
	if _, ok := en.plans[key]; ok {
		return // a racing request planned the same grid
	}
	if en.planCells+n > maxPlanCells {
		en.plans = make(map[string]*gridPlan)
		en.planCells = 0
	}
	en.plans[key] = p
	en.planCells += n
}

// newGridPlan expands g and derives each cell's skip reason or its
// keys. Each feasible cell's workload is encoded once, and its keys
// derive from that encoding.
func newGridPlan(g Grid) (*gridPlan, error) {
	cells := g.Expand()
	p := &gridPlan{cells: make([]plannedCell, len(cells)), all: make([]int, len(cells))}
	for i, c := range cells {
		p.all[i] = i
		pc := &p.cells[i]
		pc.cell = c
		if pc.skip = c.Skip(); pc.skip != "" {
			continue
		}
		k := keysOf(gridWorkload(c))
		pc.base = k.time(Fabric{Kind: ElectricalRail})
		switch c.Fabric {
		case scenario.Electrical:
		case scenario.Photonic, scenario.PhotonicStatic:
			pc.key = k.time(cellFabric(c))
		case scenario.PhotonicProvisioned:
			pc.key = k.provision(c.LatencyMS)
		default:
			return nil, fmt.Errorf("photonrail: cell %s: unknown grid fabric kind %v", c.Name(), c.Fabric)
		}
	}
	return p, nil
}

// cellFabric is the fabric a Photonic or PhotonicStatic cell simulates.
func cellFabric(c GridCell) Fabric {
	if c.Fabric == scenario.PhotonicStatic {
		return Fabric{Kind: PhotonicStaticPartition}
	}
	return Fabric{Kind: PhotonicRail, ReconfigLatencyMS: c.LatencyMS}
}

// runCells is the cell driver behind both grid entry points: it runs
// the plan's cells at indices and returns each one's row (cellRow), in
// indices order.
//
// A cell whose memo lookups both find completed entries is served
// inline, on the caller's goroutine and in order, and so is a skipped
// cell, which no memo entry backs. Only the other cells go to the
// pool, through exp.MapProgressCtx; one whose baseline was found
// carries it there and runs only its fabric's lookup. So each memo
// entry a cell reads is looked up once, inline or in the pool, and the
// cache counters read as if every cell had gone to the pool. No
// computation runs on the caller's goroutine, and no inline step waits
// on one.
//
// onCell ticks 1..n: inline cells first, then pool cells continuing the
// count. A context cancelled before or during the inline pass returns
// ctx.Err(), and a memoized error on an inline cell returns before the
// pool starts; otherwise cancellation and fail-fast are
// MapProgressCtx's.
func runCells(ctx context.Context, en *Engine, p *gridPlan, indices []int, onCell func(done, total int)) ([]*GridRow, error) {
	n := len(indices)
	rows := make([]*GridRow, n)
	// pending is a cell left for the pool: its position in indices and
	// its baseline, when the inline pass found it.
	type pending struct {
		i    int
		base *Result
	}
	var misses []pending
	done := 0
	for i, idx := range indices {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pc := &p.cells[idx]
		var base, res *Result
		if pc.skip == "" {
			var found bool
			var err error
			if base, found, err = en.lookup(pc.base); err != nil {
				return nil, baselineError(pc.cell, err)
			}
			if !found {
				misses = append(misses, pending{i: i})
				continue
			}
			if err := checkBaseline(pc.cell, base); err != nil {
				return nil, err
			}
			res = base
			if pc.key != "" {
				if res, found, err = en.lookup(pc.key); err != nil {
					return nil, fabricError(pc.cell, err)
				}
				if !found {
					misses = append(misses, pending{i: i, base: base})
					continue
				}
			}
		}
		row, err := cellRow(pc, base, res)
		if err != nil {
			return nil, err
		}
		rows[i] = row
		done++
		if onCell != nil {
			onCell(done, n)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(misses) == 0 {
		return rows, nil
	}
	var hook func(done, total int)
	if onCell != nil {
		inline := done
		hook = func(done, _ int) { onCell(inline+done, n) }
	}
	vals, err := exp.MapProgressCtx(ctx, en.pool, len(misses), func(ctx context.Context, j int) (*GridRow, error) {
		m := misses[j]
		pc := &p.cells[indices[m.i]]
		base, res, err := en.cellResults(ctx, pc, m.base)
		if err != nil {
			return nil, err
		}
		return cellRow(pc, base, res)
	}, hook)
	if err != nil {
		return nil, err
	}
	for j, m := range misses {
		rows[m.i] = vals[j]
	}
	return rows, nil
}

// lookup returns the memoized result under key when its computation
// has completed; see exp.Engine.Lookup.
func (en *Engine) lookup(key string) (*Result, bool, error) {
	v, found, err := en.pool.Lookup(key)
	if !found || err != nil {
		return nil, found, err
	}
	return v.(*Result), true, nil
}

// cellResults fetches a feasible cell's electrical baseline, unless
// the caller already holds it, and its own fabric's result, both
// memoized under the cell's planned keys.
func (en *Engine) cellResults(ctx context.Context, pc *plannedCell, base *Result) (*Result, *Result, error) {
	c := pc.cell
	w := gridWorkload(c)
	if base == nil {
		var err error
		if base, err = en.simulate(ctx, pc.base, w, Fabric{Kind: ElectricalRail}); err != nil {
			return nil, nil, baselineError(c, err)
		}
		if err := checkBaseline(c, base); err != nil {
			return nil, nil, err
		}
	}
	if pc.key == "" {
		return base, base, nil
	}
	var res *Result
	var err error
	if c.Fabric == scenario.PhotonicProvisioned {
		res, err = en.provision(ctx, pc.key, w, c.LatencyMS)
	} else {
		res, err = en.simulate(ctx, pc.key, w, cellFabric(c))
	}
	if err != nil {
		return nil, nil, fabricError(c, err)
	}
	return base, res, nil
}

// baselineError reports a cell whose electrical baseline failed.
func baselineError(c GridCell, err error) error {
	return fmt.Errorf("photonrail: cell %s baseline: %w", c.Name(), err)
}

// fabricError reports a cell whose own fabric's result failed.
func fabricError(c GridCell, err error) error {
	return fmt.Errorf("photonrail: cell %s: %w", c.Name(), err)
}

// checkBaseline refuses a baseline no slowdown can be normalized to.
func checkBaseline(c GridCell, base *Result) error {
	if base.MeanIterationSeconds <= 0 {
		return fmt.Errorf("photonrail: cell %s: degenerate baseline iteration time", c.Name())
	}
	return nil
}

// cellRow returns a cell's row, rendered once: a skip with its reason,
// or a feasible cell's result normalized to its baseline. Every field
// of a row is a function of the memo key of the result it was computed
// from: the key encodes the cell's workload (model, GPU, degrees,
// schedule, jitter, eagerness) and its fabric, latency included. So a
// feasible cell's row hangs on that Time or Provision result, and every
// later cell, in any grid, that hits the same entry reuses it; an
// evicted entry takes its row along. A skipped cell's row, which no
// result backs, hangs on its plan entry instead, so a stored plan keeps
// it. The memo lookups are runCells', so the cache counters read the
// same with or without the rows.
func cellRow(pc *plannedCell, base, res *Result) (*GridRow, error) {
	slot := &pc.row
	if pc.skip == "" {
		slot = &res.row
	}
	if row := slot.Load(); row != nil {
		return row, nil
	}
	row := scenario.RowOf(pc.cell, pc.skip)
	if pc.skip == "" {
		row.MeanIterationSeconds = res.MeanIterationSeconds
		row.Slowdown = res.MeanIterationSeconds / base.MeanIterationSeconds
		row.Reconfigurations = res.Reconfigurations
		row.FastGrants = res.FastGrants
		row.QueuedGrants = res.QueuedGrants
		row.BlockedSeconds = res.BlockedSeconds
	}
	js, err := GridRowJSON(row)
	if err != nil {
		return nil, fmt.Errorf("photonrail: cell %s: %w", row.Cell, err)
	}
	// Racing renderers produce equal rows; keep the first.
	slot.CompareAndSwap(nil, &GridRow{Row: row, JSON: js})
	return slot.Load(), nil
}
