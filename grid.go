package photonrail

import (
	"context"
	"fmt"

	"photonrail/internal/exp"
	"photonrail/internal/scenario"
	"photonrail/internal/workload"
)

// Grid declares a scenario cross-product: model preset × GPU × fabric
// kind × reconfiguration latency × {TP,DP,PP,CP,EP} × schedule × jitter
// × EagerRS. It is the scenario package's type re-exported, so grids
// are declared with photonrail presets (Llama3_8B, A100, …) and run
// with RunGrid. See internal/scenario for the expansion and
// feasibility-validation semantics.
type Grid = scenario.Grid

// GridCell is one concrete point of an expanded grid.
type GridCell = scenario.Cell

// GridCellResult is one executed (or skipped) cell.
type GridCellResult = scenario.CellResult

// GridResult is a fully executed grid with its renderers (Table, Rows,
// Skips).
type GridResult = scenario.Result

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

// RunGrid executes the grid on the default engine. See Engine.RunGrid.
func RunGrid(g Grid) (*GridResult, error) {
	return DefaultEngine().RunGrid(g)
}

// RunGrid expands the grid, reports infeasible cells as skips (with
// reasons), and simulates every feasible cell on the engine's worker
// pool. Each cell's slowdown is normalized to its workload's electrical
// baseline, fetched through the memo cache so one baseline per distinct
// workload is simulated per engine no matter how many cells share it.
// Results are gathered in expansion order: a parallel run is
// byte-identical to -parallel=1.
func (en *Engine) RunGrid(g Grid) (*GridResult, error) {
	return en.RunGridProgress(g, nil)
}

// RunGridProgress is RunGrid with a completion hook: onCell is called
// after each cell finishes (in completion order) with the running count
// and the total. It must not block; a nil hook makes this RunGrid.
func (en *Engine) RunGridProgress(g Grid, onCell func(done, total int)) (*GridResult, error) {
	return en.RunGridProgressCtx(context.Background(), g, onCell)
}

// RunGridCtx is RunGrid under a context; see RunGridProgressCtx.
func (en *Engine) RunGridCtx(ctx context.Context, g Grid) (*GridResult, error) {
	return en.RunGridProgressCtx(ctx, g, nil)
}

// RunGridProgressCtx is the context-aware RunGridProgress: a cancelled
// ctx stops scheduling cells and returns ctx.Err() promptly, and the
// first cell error stops the remaining cells (fail-fast). Simulations
// shared with other engine callers keep running for them. Stragglers
// may tick onCell briefly after an early ctx-cancelled return.
func (en *Engine) RunGridProgressCtx(ctx context.Context, g Grid, onCell func(done, total int)) (*GridResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Expand()
	results, err := exp.MapProgressCtx(ctx, en.pool, len(cells), func(ctx context.Context, i int) (GridCellResult, error) {
		return en.runCell(ctx, cells[i])
	}, onCell)
	if err != nil {
		return nil, err
	}
	return &GridResult{Grid: g, Cells: results}, nil
}

// RunCellsCtx executes the subset of g's expanded cells selected by
// indices; see RunCellsProgressCtx.
func (en *Engine) RunCellsCtx(ctx context.Context, g Grid, indices []int) ([]GridCellResult, error) {
	return en.RunCellsProgressCtx(ctx, g, indices, nil)
}

// RunCellsProgressCtx executes only the cells of g at the given
// expansion-order indices and returns their results in indices order —
// the partial-execution primitive a fleet coordinator shards a grid
// into. Each cell simulates exactly as it would inside RunGrid (same
// memo cache, same electrical-baseline normalization, same skip
// reporting), so the rows a fleet merges from disjoint subsets are
// byte-identical to one full local run. onCell ticks per completed
// cell with the running count and the subset's size; cancellation and
// fail-fast semantics match RunGridProgressCtx.
func (en *Engine) RunCellsProgressCtx(ctx context.Context, g Grid, indices []int, onCell func(done, total int)) ([]GridCellResult, error) {
	cells, err := expandFor(g, indices)
	if err != nil {
		return nil, err
	}
	return exp.MapProgressCtx(ctx, en.pool, len(indices), func(ctx context.Context, i int) (GridCellResult, error) {
		return en.runCell(ctx, cells[indices[i]])
	}, onCell)
}

// expandFor validates g and expands it, refusing indices outside the
// expansion.
func expandFor(g Grid, indices []int) ([]GridCell, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Expand()
	for _, idx := range indices {
		if idx < 0 || idx >= len(cells) {
			return nil, fmt.Errorf("photonrail: cell index %d outside grid %q (%d cells)", idx, g.Name, len(cells))
		}
	}
	return cells, nil
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

// runCell executes one cell: skip if infeasible, otherwise simulate the
// cell's fabric and its electrical baseline (both memoized) and report
// timing, telemetry, and normalized slowdown.
func (en *Engine) runCell(ctx context.Context, c GridCell) (GridCellResult, error) {
	out := GridCellResult{Cell: c}
	if reason := c.Skip(); reason != "" {
		out.Skipped = true
		out.SkipReason = reason
		return out, nil
	}
	base, res, err := en.cellResults(ctx, c)
	if err != nil {
		return out, err
	}
	return cellResultOf(c, base, res), nil
}

// cellResults fetches a feasible cell's electrical baseline and its own
// fabric's result, both memoized. The cell's workload is encoded once,
// and both memo keys derive from that encoding.
func (en *Engine) cellResults(ctx context.Context, c GridCell) (base, res *Result, err error) {
	w := gridWorkload(c)
	k := keysOf(w)
	electrical := Fabric{Kind: ElectricalRail}
	base, err = en.simulate(ctx, k.time(electrical), w, electrical)
	if err != nil {
		return nil, nil, fmt.Errorf("photonrail: cell %s baseline: %w", c.Name(), err)
	}
	if base.MeanIterationSeconds <= 0 {
		return nil, nil, fmt.Errorf("photonrail: cell %s: degenerate baseline iteration time", c.Name())
	}
	switch c.Fabric {
	case scenario.Electrical:
		res = base
	case scenario.Photonic:
		f := Fabric{Kind: PhotonicRail, ReconfigLatencyMS: c.LatencyMS}
		res, err = en.simulate(ctx, k.time(f), w, f)
	case scenario.PhotonicProvisioned:
		res, err = en.provision(ctx, k.provision(c.LatencyMS), w, c.LatencyMS)
	case scenario.PhotonicStatic:
		f := Fabric{Kind: PhotonicStaticPartition}
		res, err = en.simulate(ctx, k.time(f), w, f)
	default:
		err = fmt.Errorf("unknown grid fabric kind %v", c.Fabric)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("photonrail: cell %s: %w", c.Name(), err)
	}
	return base, res, nil
}

// cellResultOf reports a feasible cell from its fabric's result and
// its workload's electrical baseline.
func cellResultOf(c GridCell, base, res *Result) GridCellResult {
	return GridCellResult{
		Cell:                 c,
		MeanIterationSeconds: res.MeanIterationSeconds,
		TotalSeconds:         res.TotalSeconds,
		Slowdown:             res.MeanIterationSeconds / base.MeanIterationSeconds,
		Reconfigurations:     res.Reconfigurations,
		FastGrants:           res.FastGrants,
		QueuedGrants:         res.QueuedGrants,
		BlockedSeconds:       res.BlockedSeconds,
	}
}

// maxSkipRows caps the engine's skip-row table. Like the profile intern
// table, it is purely an optimization, so a long-running engine that
// crosses the cap drops the table and starts over.
const maxSkipRows = 4096

// cellRow returns a cell's row, rendered once. Every field of a row is
// a function of the memo key of the result it was computed from: the
// key encodes the cell's workload (model, GPU, degrees, schedule,
// jitter, eagerness) and its fabric, latency included. So a feasible
// cell's row hangs on that Time or Provision result, and every later
// cell, in any grid, that hits the same entry reuses it; an evicted
// entry takes its row along. A skipped cell's row, which no result
// backs, lives in the engine's skip-row table under a key derived the
// same way. The memo lookups are runCell's, so the cache counters read
// the same with or without the rows.
func (en *Engine) cellRow(ctx context.Context, c GridCell) (*GridRow, error) {
	if reason := c.Skip(); reason != "" {
		return en.skipRow(c, reason)
	}
	base, res, err := en.cellResults(ctx, c)
	if err != nil {
		return nil, err
	}
	if row := res.row.Load(); row != nil {
		return row, nil
	}
	row, err := newGridRow(cellResultOf(c, base, res))
	if err != nil {
		return nil, err
	}
	// Racing renderers produce equal rows; keep the first.
	res.row.CompareAndSwap(nil, row)
	return res.row.Load(), nil
}

// skipRow returns a skipped cell's row from the skip-row table,
// rendering it on a miss.
func (en *Engine) skipRow(c GridCell, reason string) (*GridRow, error) {
	k := keysOf(gridWorkload(c))
	key := k.skipRow(c.Fabric, c.LatencyMS)
	en.rowMu.Lock()
	row := en.skipRows[key]
	en.rowMu.Unlock()
	if row != nil {
		return row, nil
	}
	row, err := newGridRow(GridCellResult{Cell: c, Skipped: true, SkipReason: reason})
	if err != nil {
		return nil, err
	}
	en.rowMu.Lock()
	defer en.rowMu.Unlock()
	if len(en.skipRows) >= maxSkipRows {
		en.skipRows = make(map[string]*GridRow)
	}
	en.skipRows[key] = row
	return row, nil
}

// newGridRow renders one cell result as its row and the row's bytes.
func newGridRow(cr GridCellResult) (*GridRow, error) {
	row := scenario.RowOf(cr)
	js, err := GridRowJSON(row)
	if err != nil {
		return nil, fmt.Errorf("photonrail: cell %s: %w", row.Cell, err)
	}
	return &GridRow{Row: row, JSON: js}, nil
}

// RunCellRowsCtx executes the cells of g at the given expansion-order
// indices, exactly as RunCellsProgressCtx does, and returns their rows
// in indices order, each with the bytes a grid's JSON rendering
// carries for it. Rows come from the engine's row cache (see
// GridRow): a warm cell renders nothing. A daemon serves a fleet
// coordinator's cell batches from here.
func (en *Engine) RunCellRowsCtx(ctx context.Context, g Grid, indices []int, onCell func(done, total int)) ([]*GridRow, error) {
	cells, err := expandFor(g, indices)
	if err != nil {
		return nil, err
	}
	return exp.MapProgressCtx(ctx, en.pool, len(indices), func(ctx context.Context, i int) (*GridRow, error) {
		return en.cellRow(ctx, cells[indices[i]])
	}, onCell)
}

// gridRows executes every cell of g, in expansion order, through the
// row cache; cancellation and fail-fast match RunGridProgressCtx.
func (en *Engine) gridRows(ctx context.Context, g Grid, onCell func(done, total int)) ([]*GridRow, error) {
	cells, err := expandFor(g, nil)
	if err != nil {
		return nil, err
	}
	return exp.MapProgressCtx(ctx, en.pool, len(cells), func(ctx context.Context, i int) (*GridRow, error) {
		return en.cellRow(ctx, cells[i])
	}, onCell)
}
