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
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cells := g.Expand()
	for _, idx := range indices {
		if idx < 0 || idx >= len(cells) {
			return nil, fmt.Errorf("photonrail: cell index %d outside grid %q (%d cells)", idx, g.Name, len(cells))
		}
	}
	return exp.MapProgressCtx(ctx, en.pool, len(indices), func(ctx context.Context, i int) (GridCellResult, error) {
		return en.runCell(ctx, cells[indices[i]])
	}, onCell)
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
// timing, telemetry, and normalized slowdown. The cell's workload is
// encoded once, and both memo keys derive from that encoding.
func (en *Engine) runCell(ctx context.Context, c GridCell) (GridCellResult, error) {
	out := GridCellResult{Cell: c}
	if reason := c.Skip(); reason != "" {
		out.Skipped = true
		out.SkipReason = reason
		return out, nil
	}
	w := gridWorkload(c)
	k := keysOf(w)
	electrical := Fabric{Kind: ElectricalRail}
	base, err := en.simulate(ctx, k.time(electrical), w, electrical)
	if err != nil {
		return out, fmt.Errorf("photonrail: cell %s baseline: %w", c.Name(), err)
	}
	if base.MeanIterationSeconds <= 0 {
		return out, fmt.Errorf("photonrail: cell %s: degenerate baseline iteration time", c.Name())
	}
	var res *Result
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
		return out, fmt.Errorf("photonrail: cell %s: %w", c.Name(), err)
	}
	out.MeanIterationSeconds = res.MeanIterationSeconds
	out.TotalSeconds = res.TotalSeconds
	out.Slowdown = res.MeanIterationSeconds / base.MeanIterationSeconds
	out.Reconfigurations = res.Reconfigurations
	out.FastGrants = res.FastGrants
	out.QueuedGrants = res.QueuedGrants
	out.BlockedSeconds = res.BlockedSeconds
	return out, nil
}
