package photonrail

import (
	"context"
	"fmt"
	"strings"

	"photonrail/internal/cost"
	"photonrail/internal/exp"
	"photonrail/internal/metrics"
	"photonrail/internal/ocs"
	"photonrail/internal/parallelism"
	"photonrail/internal/report"
	"photonrail/internal/topo"
	"photonrail/internal/trace"
	"photonrail/internal/units"
)

// Table1 renders the rule-of-thumb LLM parallelism strategies (paper
// Table 1), generated from the planner rather than hard-coded.
func Table1() *report.Table {
	t := report.NewTable("Table 1: rule-of-thumb LLM parallelism strategies",
		"Model size", "Compute (N GPUs)", "Practices")
	type row struct {
		size   string
		params int64
		n      int
		nLabel string
	}
	const b = 1_000_000_000
	rows := []row{
		{"Small (<10B)", 8 * b, 8, "N <= 8"},
		{"Large (>10B)", 70 * b, 512, "8 < N <= 512"},
		{"Large (>10B)", 70 * b, 1024, "512 < N <= 1024"},
		{"Large (>10B)", 405 * b, 4096, "N > 1024"},
	}
	for _, r := range rows {
		recs := parallelism.Plan(r.params, r.n)
		var parts []string
		for _, rec := range recs {
			axes := make([]string, len(rec))
			for i, a := range rec {
				axes[i] = a.String()
			}
			// Paper wording: "TP & PP" for pairs, "TP, DP & PP" for
			// triples.
			if len(axes) > 1 {
				parts = append(parts, strings.Join(axes[:len(axes)-1], ", ")+" & "+axes[len(axes)-1])
			} else {
				parts = append(parts, axes[0])
			}
		}
		t.AddRow(r.size, r.nLabel, strings.Join(parts, ", "))
	}
	return t
}

// Table2 renders the per-parallelism communication characteristics
// (paper Table 2) from the parallelism package's model.
func Table2() *report.Table {
	t := report.NewTable("Table 2: characteristics of parallelism strategies",
		"Parallelism", "Memory reduction", "Compute reduction", "Communication type and frequency")
	for _, c := range parallelism.AllCharacteristics() {
		var comms []string
		for _, cm := range c.Comms {
			comms = append(comms, fmt.Sprintf("%v %v %v", cm.Phase, cm.Kind, cm.Freq))
		}
		t.AddRow(c.Axis, strings.Join(c.MemoryReduction, ", "),
			strings.Join(c.ComputeReduction, ", "), strings.Join(comms, "; "))
	}
	return t
}

// Table3 renders the OCS scalability–latency tradeoff (paper Table 3):
// #GPUs = scale-up size × radix/2 for GB200 (72) and H200 (8) domains.
func Table3() *report.Table {
	t := report.NewTable("Table 3: Opus scalability-latency tradeoff",
		"OCS Tech", "Reconfig. time (ms)", "Radix (ports)", "# GPUs (GB200)", "# GPUs (H200)")
	for _, tech := range ocs.Catalog() {
		t.AddRow(tech.String(),
			fmt.Sprintf("%g", tech.ReconfigTime.Milliseconds()),
			tech.Radix,
			tech.MaxGPUs(topo.GB200GPUsPerNode),
			tech.MaxGPUs(topo.DGXH200GPUsPerNode))
	}
	return t
}

// CostComparison regenerates Fig. 7 at the paper's cluster sizes and
// returns the rows for custom rendering. It runs on DefaultEngine: the
// cluster sizes are evaluated in parallel and each (size, catalog) BOM
// row is memoized across experiments.
func CostComparison() ([]cost.Fig7Row, error) {
	return DefaultEngine().CostComparisonCtx(context.Background())
}

// CostComparisonCtx is the engine form of the package-level
// CostComparison: cancellation stops scheduling cluster sizes and
// returns ctx.Err() promptly.
func (en *Engine) CostComparisonCtx(ctx context.Context) ([]cost.Fig7Row, error) {
	sizes := cost.PaperSizes()
	cat := cost.DefaultCatalog()
	return exp.MapProgressCtx(ctx, en.pool, len(sizes), func(ctx context.Context, i int) (cost.Fig7Row, error) {
		// The catalog is not encoded: it is always DefaultCatalog, a
		// constant of the program, and a memo never outlives its process.
		k := exp.NewKeyEncoder("fig7-row")
		k.Int(sizes[i])
		k.Int(topo.DGXH200GPUsPerNode)
		return exp.CachedCostCtx(ctx, en.pool, k.Sum(""), 1,
			func(context.Context) (cost.Fig7Row, error) {
				rows, err := cost.Fig7([]int{sizes[i]}, topo.DGXH200GPUsPerNode, cat)
				if err != nil {
					return cost.Fig7Row{}, err
				}
				return rows[0], nil
			})
	}, nil)
}

// Fig7Table renders the Fig. 7 comparison with per-design cost/power and
// Opus's savings versus the rail-optimized fabric.
func Fig7Table() (*report.Table, error) {
	rows, err := CostComparison()
	if err != nil {
		return nil, err
	}
	return Fig7RowsTable(rows), nil
}

// Fig7RowsTable renders already-computed Fig. 7 rows (e.g. from an
// Engine's CostComparisonCtx).
func Fig7RowsTable(rows []cost.Fig7Row) *report.Table {
	t := report.NewTable("Fig. 7: GPU-backend network cost and power (DGX H200, 400G)",
		"GPUs", "Fat-tree cost", "Rail cost", "Opus cost", "Cost saving",
		"Fat-tree power", "Rail power", "Opus power", "Power saving")
	for _, r := range rows {
		costFrac, powerFrac := cost.Savings(r.Rail, r.Opus)
		t.AddRow(r.GPUs,
			r.FatTree.TotalCost(), r.Rail.TotalCost(), r.Opus.TotalCost(),
			fmt.Sprintf("%.1f%%", 100*costFrac),
			r.FatTree.TotalPower(), r.Rail.TotalPower(), r.Opus.TotalPower(),
			fmt.Sprintf("%.2f%%", 100*powerFrac))
	}
	return t
}

// Fig8Table renders a latency sweep as the Fig. 8 series.
func Fig8Table(points []SweepPoint) *report.Table {
	t := report.NewTable("Fig. 8: normalized iteration time vs reconfiguration latency",
		"Latency (ms)", "Without provisioning", "With provisioning", "Reconfigs (reactive)")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%g", p.LatencyMS),
			fmt.Sprintf("%.3f", p.Reactive),
			fmt.Sprintf("%.3f", p.Provisioned),
			p.ReactiveReconfigs)
	}
	return t
}

// Fig4Tables renders the window analysis: (a) CDF quantiles per rail,
// (b) the rail-0 per-class breakdown.
func Fig4Tables(rep *WindowReport) (cdf, breakdown *report.Table) {
	cdf = report.NewTable("Fig. 4a: window-size CDF per rail (ms)",
		"Rail", "N", "p10", "p25", "p50", "p75", "p90", "max", ">1ms")
	for rail := 0; ; rail++ {
		c, ok := rep.PerRailCDF[rail]
		if !ok {
			break
		}
		cdf.AddRow(fmt.Sprintf("rail%d", rail+1), c.N(),
			fmt.Sprintf("%.3g", c.Quantile(0.10)),
			fmt.Sprintf("%.3g", c.Quantile(0.25)),
			fmt.Sprintf("%.3g", c.Quantile(0.50)),
			fmt.Sprintf("%.3g", c.Quantile(0.75)),
			fmt.Sprintf("%.3g", c.Quantile(0.90)),
			fmt.Sprintf("%.3g", c.Quantile(1)),
			fmt.Sprintf("%.0f%%", 100*c.FractionAbove(1)))
	}
	breakdown = report.NewTable("Fig. 4b: rail-0 windows by following traffic (one iteration)",
		"Traffic class", "Count / iter", "Avg window (ms)", "Avg traffic after")
	for _, b := range rep.Breakdown.Buckets() {
		vol := units.ByteSize(rep.BreakdownBytes[b.Label])
		breakdown.AddRow(b.Label, b.Count, fmt.Sprintf("%.3g", b.Mean()), vol)
	}
	return cdf, breakdown
}

// TimelineTable renders the Fig. 3-style communication pattern of one
// rail and iteration: each scale-out op with its phase, groups, bounds,
// and volume, in start order.
func TimelineTable(tr *trace.Trace, rail, iteration int) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig. 3: rail %d communication pattern (iteration %d)", rail, iteration),
		"Start (ms)", "End (ms)", "Phase", "Op", "Group", "Bytes")
	for _, s := range tr.RailSpans(topo.RailID(rail), iteration) {
		t.AddRow(
			fmt.Sprintf("%.2f", s.Start.Milliseconds()),
			fmt.Sprintf("%.2f", s.End.Milliseconds()),
			s.Phase, s.Label, s.Group, s.Bytes)
	}
	return t
}

// WindowCount evaluates the paper's Eq. 1 formula.
func WindowCount(pp, layers, microbatches int, hasCP, hasEP bool) (int, error) {
	return parallelism.WindowCount(parallelism.WindowCountConfig{
		PP: pp, Layers: layers, Microbatches: microbatches, HasCP: hasCP, HasEP: hasEP,
	})
}

// NewCDF exposes the metrics CDF for downstream analysis of custom
// samples.
func NewCDF(samples []float64) *metrics.CDF { return metrics.NewCDF(samples) }
