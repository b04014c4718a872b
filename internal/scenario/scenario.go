// Package scenario declares scenario grids: the cross-product of
// workload and fabric dimensions the paper's evaluation ranges over —
// model preset × GPU × fabric kind × reconfiguration latency ×
// {TP,DP,PP,CP,EP} parallelism × pipeline schedule × compute jitter ×
// ReduceScatter eagerness. A Grid expands into concrete simulation
// cells in a deterministic order; combinations a fabric cannot realize
// (e.g. a static partition whose scale-out axes exceed the NIC's port
// pairs, constraint C2) are *reported* as skips with a reason, never
// errors, so one grid can honestly cover feasible and infeasible
// corners of the space side by side.
//
// The package is purely declarative: expansion, feasibility validation,
// naming, and the result's shape live here. A grid's result is its
// rows: one flat, wire-encodable Row per cell (RowOf), rendered as a
// table or CSV by TableFromRows and CSVTableFromRows. Execution, on
// the concurrent memoizing engine, lives in the photonrail package
// (Engine.RunGrid, Engine.RunCellRowsCtx), which fills each feasible
// cell's metrics into its row.
package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"photonrail/internal/model"
	"photonrail/internal/parallelism"
	"photonrail/internal/report"
	"photonrail/internal/topo"
	"photonrail/internal/workload"
)

// FabricKind enumerates the fabric realizations a grid can sweep.
// Provisioning is its own kind: reactive vs speculative reconfiguration
// is a scenario axis of the paper (Fig. 8), not a tweak.
type FabricKind int

// The sweepable fabric realizations.
const (
	// Electrical is the packet-switched full-bisection baseline.
	Electrical FabricKind = iota
	// Photonic is the OCS rail under reactive Opus reconfiguration.
	Photonic
	// PhotonicProvisioned adds the shim's speculative reconfiguration
	// (profile, provision, keep the fastest stable schedule).
	PhotonicProvisioned
	// PhotonicStatic pins NIC port pairs to parallelism axes with no
	// in-job reconfiguration (the C3 baseline, subject to C2).
	PhotonicStatic
)

// String names the kind (also the CLI spelling).
func (k FabricKind) String() string {
	switch k {
	case Electrical:
		return "electrical"
	case Photonic:
		return "photonic"
	case PhotonicProvisioned:
		return "provisioned"
	case PhotonicStatic:
		return "static"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

// FabricKindByName parses the CLI spelling of a fabric kind.
func FabricKindByName(name string) (FabricKind, bool) {
	for _, k := range []FabricKind{Electrical, Photonic, PhotonicProvisioned, PhotonicStatic} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// reconfigures reports whether the kind's cells cross with the grid's
// latency dimension (only kinds that switch circuits in-job do; the
// electrical baseline and the static partition collapse to one cell).
func (k FabricKind) reconfigures() bool {
	return k == Photonic || k == PhotonicProvisioned
}

// Parallelism is one {TP,DP,PP,CP,EP} coordinate of the grid. CP and EP
// are optional axes (0 or 1 = off) — the paper's 4D/5D question. The
// JSON tags make the coordinate wire-encodable (see Spec).
type Parallelism struct {
	TP int `json:"tp"`
	DP int `json:"dp"`
	PP int `json:"pp"`
	CP int `json:"cp,omitempty"`
	EP int `json:"ep,omitempty"`
}

// NumNodes derives the cluster size the coordinate fills: the scale-up
// domain holds TP, so nodes = DP·CP·EP·PP.
func (p Parallelism) NumNodes() int {
	n := p.DP * p.PP
	if p.CP > 1 {
		n *= p.CP
	}
	if p.EP > 1 {
		n *= p.EP
	}
	return n
}

// ScaleOutAxes counts the parallelism axes that put traffic on the
// rails — the quantity constraint C2 bounds for static partitions.
func (p Parallelism) ScaleOutAxes() int {
	n := 0
	for _, d := range []int{p.DP, p.PP, p.CP, p.EP} {
		if d > 1 {
			n++
		}
	}
	return n
}

// String renders the coordinate compactly, omitting disabled axes:
// "tp4-dp2-pp2" or "tp4-dp1-cp2-ep2-pp2".
func (p Parallelism) String() string {
	var buf [48]byte
	return string(p.AppendName(buf[:0]))
}

// AppendName appends String's rendering of the coordinate to b.
func (p Parallelism) AppendName(b []byte) []byte {
	b = append(b, "tp"...)
	b = strconv.AppendInt(b, int64(p.TP), 10)
	b = append(b, "-dp"...)
	b = strconv.AppendInt(b, int64(p.DP), 10)
	if p.CP > 1 {
		b = append(b, "-cp"...)
		b = strconv.AppendInt(b, int64(p.CP), 10)
	}
	if p.EP > 1 {
		b = append(b, "-ep"...)
		b = strconv.AppendInt(b, int64(p.EP), 10)
	}
	b = append(b, "-pp"...)
	return strconv.AppendInt(b, int64(p.PP), 10)
}

// Grid declares a scenario cross-product. Empty dimension slices take
// single-element paper defaults, so the zero grid (plus a name) is the
// §3.1 workload on electrical vs reactive-photonic fabrics.
type Grid struct {
	// Name labels the grid in reports.
	Name string

	// Dimensions. Every non-empty slice multiplies the cell count.
	Models       []model.Spec
	GPUs         []model.GPU
	Fabrics      []FabricKind
	LatenciesMS  []float64 // crossed with reconfiguring fabric kinds only
	Parallelisms []Parallelism
	Schedules    []workload.Schedule
	JitterFracs  []float64
	EagerRS      []bool

	// Scalars shared by every cell (zero values take paper defaults).
	NIC            topo.PortConfig
	Microbatches   int
	MicrobatchSize int
	Iterations     int
}

// withDefaults returns a copy with paper defaults filled in.
func (g Grid) withDefaults() Grid {
	if len(g.Models) == 0 {
		g.Models = []model.Spec{model.Llama3_8B}
	}
	if len(g.GPUs) == 0 {
		g.GPUs = []model.GPU{model.A100}
	}
	if len(g.Fabrics) == 0 {
		g.Fabrics = []FabricKind{Electrical, Photonic}
	}
	if len(g.LatenciesMS) == 0 {
		g.LatenciesMS = []float64{10}
	}
	if len(g.Parallelisms) == 0 {
		g.Parallelisms = []Parallelism{{TP: 4, DP: 2, PP: 2}}
	}
	if len(g.Schedules) == 0 {
		g.Schedules = []workload.Schedule{workload.OneFOneB}
	}
	if len(g.JitterFracs) == 0 {
		g.JitterFracs = []float64{0}
	}
	if len(g.EagerRS) == 0 {
		g.EagerRS = []bool{false}
	}
	if g.NIC == (topo.PortConfig{}) {
		g.NIC = topo.TwoPort200G
	}
	if g.Microbatches == 0 {
		g.Microbatches = 12
	}
	if g.MicrobatchSize == 0 {
		g.MicrobatchSize = 2
	}
	if g.Iterations == 0 {
		g.Iterations = 2
	}
	return g
}

// Validate rejects malformed grids (as opposed to infeasible cells,
// which expand into reported skips).
func (g Grid) Validate() error {
	gd := g.withDefaults()
	for _, lat := range gd.LatenciesMS {
		if lat < 0 {
			return fmt.Errorf("scenario: negative reconfiguration latency %v ms", lat)
		}
	}
	if err := gd.NIC.Validate(); err != nil {
		return err
	}
	if gd.Microbatches < 0 || gd.MicrobatchSize < 0 || gd.Iterations < 0 {
		return fmt.Errorf("scenario: negative microbatches/size/iterations")
	}
	for _, j := range gd.JitterFracs {
		if j < 0 || j >= 1 {
			return fmt.Errorf("scenario: jitter fraction %v outside [0, 1)", j)
		}
	}
	for _, k := range gd.Fabrics {
		switch k {
		case Electrical, Photonic, PhotonicProvisioned, PhotonicStatic:
		default:
			return fmt.Errorf("scenario: unknown fabric kind %d", int(k))
		}
	}
	// A cell simulates GPipe or 1F1B; any other value would run as
	// 1F1B under another name.
	for _, sched := range gd.Schedules {
		if sched != workload.OneFOneB && sched != workload.GPipe {
			return fmt.Errorf("scenario: unknown pipeline schedule %d", int(sched))
		}
	}
	return nil
}

// Cell is one concrete point of the expanded grid.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int

	Model      model.Spec
	GPU        model.GPU
	Fabric     FabricKind
	LatencyMS  float64 // 0 for non-reconfiguring kinds
	Par        Parallelism
	Schedule   workload.Schedule
	JitterFrac float64
	EagerRS    bool

	NIC            topo.PortConfig
	Microbatches   int
	MicrobatchSize int
	Iterations     int
}

// Name renders the cell's coordinates compactly, e.g.
// "Llama3-8B/A100/tp4-dp2-pp2/1F1B/photonic@10ms".
func (c Cell) Name() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s/%s/%s/%s/%s", c.Model.Name, c.GPU.Name, c.Par, c.Schedule, c.Fabric)
	if c.Fabric.reconfigures() {
		fmt.Fprintf(&sb, "@%gms", c.LatencyMS)
	}
	if c.JitterFrac > 0 {
		fmt.Fprintf(&sb, "/j%g", c.JitterFrac)
	}
	if c.EagerRS {
		sb.WriteString("/eagerRS")
	}
	return sb.String()
}

// Skip reports why the cell cannot be simulated, or "" when it is
// feasible. The checks mirror the workload builder's validation and the
// simulator's C2 static-partition constraint, so infeasibility is known
// before any simulation runs.
func (c Cell) Skip() string {
	p := c.Par
	if p.TP <= 0 || p.DP <= 0 || p.PP <= 0 || p.CP < 0 || p.EP < 0 {
		return fmt.Sprintf("invalid degrees %s", p)
	}
	if c.Model.Layers%p.PP != 0 {
		return fmt.Sprintf("%d layers not divisible by PP=%d", c.Model.Layers, p.PP)
	}
	if c.Microbatches < p.PP {
		return fmt.Sprintf("%d microbatches cannot fill a %d-stage pipeline", c.Microbatches, p.PP)
	}
	if p.EP > 1 {
		if !c.Model.IsMoE() {
			return fmt.Sprintf("EP=%d requires a mixture-of-experts model (%s is dense)", p.EP, c.Model.Name)
		}
		if p.EP > c.Model.Experts {
			return fmt.Sprintf("EP=%d exceeds %d experts", p.EP, c.Model.Experts)
		}
	}
	if c.Fabric == PhotonicStatic {
		if axes := p.ScaleOutAxes(); axes > parallelism.MaxSimultaneousScaleOutAxes(c.NIC.Ports) {
			return fmt.Sprintf("static partition infeasible: %d scale-out axes need %d ports, NIC has %d (C2)",
				axes, 2*axes, c.NIC.Ports)
		}
	}
	return ""
}

// CellCount reports how many cells Expand would materialize, computed
// arithmetically from the dimension lengths so callers (e.g. a daemon
// bounding request size) can reject an oversized grid without paying
// for — or being OOM-killed by — the expansion itself. Counts beyond
// math.MaxInt32 clamp there; no executable grid is anywhere near it.
func (g Grid) CellCount() int {
	gd := g.withDefaults()
	perWorkload := int64(0)
	for _, k := range gd.Fabrics {
		if k.reconfigures() {
			perWorkload += int64(len(gd.LatenciesMS))
		} else {
			perWorkload++
		}
		if perWorkload > math.MaxInt32 {
			// Clamp before multiplying below, so the product of two
			// clamped factors stays within int64.
			perWorkload = math.MaxInt32
			break
		}
	}
	count := int64(1)
	for _, n := range []int64{
		int64(len(gd.Models)), int64(len(gd.GPUs)), int64(len(gd.Parallelisms)),
		int64(len(gd.Schedules)), int64(len(gd.JitterFracs)), int64(len(gd.EagerRS)),
		perWorkload,
	} {
		count *= n
		if count > math.MaxInt32 {
			return math.MaxInt32
		}
	}
	return int(count)
}

// Expand materializes the grid's cells in deterministic nested-loop
// order (model, GPU, parallelism, schedule, jitter, eagerRS, fabric,
// latency — fabric innermost so adjacent rows compare fabrics for one
// workload). Defaults are applied; infeasible cells are included, to be
// skipped (with Skip's reason) at execution time.
func (g Grid) Expand() []Cell {
	gd := g.withDefaults()
	var cells []Cell
	add := func(c Cell) {
		c.Index = len(cells)
		c.NIC = gd.NIC
		c.Microbatches = gd.Microbatches
		c.MicrobatchSize = gd.MicrobatchSize
		c.Iterations = gd.Iterations
		cells = append(cells, c)
	}
	for _, m := range gd.Models {
		for _, gpu := range gd.GPUs {
			for _, par := range gd.Parallelisms {
				for _, sched := range gd.Schedules {
					for _, jitter := range gd.JitterFracs {
						for _, eager := range gd.EagerRS {
							for _, kind := range gd.Fabrics {
								base := Cell{
									Model: m, GPU: gpu, Fabric: kind, Par: par,
									Schedule: sched, JitterFrac: jitter, EagerRS: eager,
								}
								if !kind.reconfigures() {
									add(base)
									continue
								}
								for _, lat := range gd.LatenciesMS {
									c := base
									c.LatencyMS = lat
									add(c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cells
}

// Row is the flat, render-ready view of one cell's outcome, shared by
// the table/CSV/JSON renderers.
type Row struct {
	Cell       string  `json:"cell"`
	Model      string  `json:"model"`
	GPU        string  `json:"gpu"`
	Fabric     string  `json:"fabric"`
	LatencyMS  float64 `json:"latencyMS"`
	TP         int     `json:"tp"`
	DP         int     `json:"dp"`
	PP         int     `json:"pp"`
	CP         int     `json:"cp"`
	EP         int     `json:"ep"`
	Schedule   string  `json:"schedule"`
	JitterFrac float64 `json:"jitterFrac"`
	EagerRS    bool    `json:"eagerRS"`
	Status     string  `json:"status"` // "ok" or "skip"
	SkipReason string  `json:"skipReason,omitempty"`

	MeanIterationSeconds float64 `json:"meanIterationSeconds"`
	// Slowdown is MeanIterationSeconds over the same workload's
	// electrical-baseline mean iteration time (1.0 = baseline parity).
	Slowdown         float64 `json:"slowdown"`
	Reconfigurations int     `json:"reconfigurations"`
	FastGrants       int     `json:"fastGrants"`
	QueuedGrants     int     `json:"queuedGrants"`
	BlockedSeconds   float64 `json:"blockedSeconds"`
}

// RowOf flattens one cell's coordinates into its row: status "skip"
// with the reason when skipReason is set, else "ok", with the metrics
// left zero for the caller that ran the cell to fill in.
func RowOf(c Cell, skipReason string) Row {
	row := Row{
		Cell: c.Name(), Model: c.Model.Name, GPU: c.GPU.Name,
		Fabric: c.Fabric.String(), LatencyMS: c.LatencyMS,
		TP: c.Par.TP, DP: c.Par.DP, PP: c.Par.PP, CP: c.Par.CP, EP: c.Par.EP,
		Schedule: c.Schedule.String(), JitterFrac: c.JitterFrac, EagerRS: c.EagerRS,
		Status: "ok",
	}
	if skipReason != "" {
		row.Status = "skip"
		row.SkipReason = skipReason
	}
	return row
}

// TableFromRows renders flat rows as the aligned grid table, titled
// with the grid's name. Rows are wire-encodable, so a remote consumer
// (railclient) renders the same table a local run does.
func TableFromRows(name string, rows []Row) *report.Table {
	title := "Scenario grid"
	if name != "" {
		title = fmt.Sprintf("Scenario grid %q", name)
	}
	t := report.NewTable(title,
		"Model", "GPU", "Parallelism", "Sched", "Fabric", "Lat(ms)",
		"Status", "MeanIter(s)", "Slowdown", "Reconf", "Fast", "Queued", "Blocked(s)")
	for _, row := range rows {
		par := Parallelism{TP: row.TP, DP: row.DP, PP: row.PP, CP: row.CP, EP: row.EP}
		lat := "-"
		if kind, ok := FabricKindByName(row.Fabric); ok && kind.reconfigures() {
			lat = fmt.Sprintf("%g", row.LatencyMS)
		}
		if row.Status == "skip" {
			t.AddRow(row.Model, row.GPU, par.String(), row.Schedule, row.Fabric, lat,
				"skip: "+row.SkipReason, "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(row.Model, row.GPU, par.String(), row.Schedule, row.Fabric, lat,
			"ok",
			fmt.Sprintf("%.4f", row.MeanIterationSeconds),
			fmt.Sprintf("%.4f", row.Slowdown),
			row.Reconfigurations, row.FastGrants, row.QueuedGrants,
			fmt.Sprintf("%.4f", row.BlockedSeconds))
	}
	return t
}

// CSVTableFromRows renders flat rows with one fully numeric column per
// field (no display dashes), the shape scripted consumers want from
// -format csv.
func CSVTableFromRows(rows []Row) *report.Table {
	t := report.NewTable("",
		"cell", "model", "gpu", "fabric", "latency_ms",
		"tp", "dp", "pp", "cp", "ep", "schedule", "jitter", "eager_rs",
		"status", "skip_reason",
		"mean_iteration_s", "slowdown", "reconfigurations", "fast_grants", "queued_grants", "blocked_s")
	for _, row := range rows {
		t.AddRow(row.Cell, row.Model, row.GPU, row.Fabric, row.LatencyMS,
			row.TP, row.DP, row.PP, row.CP, row.EP, row.Schedule, row.JitterFrac, row.EagerRS,
			row.Status, row.SkipReason,
			row.MeanIterationSeconds, row.Slowdown, row.Reconfigurations,
			row.FastGrants, row.QueuedGrants, row.BlockedSeconds)
	}
	return t
}

// Fig8Grid5D is the built-in grid named "fig8-5d": the paper's Fig. 8
// measurement workload (Llama3-8B on 4×4 A100 nodes, 12 microbatches of
// 2) swept across 5D-parallelism variants — the 3D baseline (TP-FSDP-PP)
// plus the CP and EP variants of §3's provocative question — on all four
// fabric realizations at three switching latencies. The MoE twin
// (Mixtral-8x7B) makes the EP column simulable; dense-model EP cells and
// every C2-violating static cell are reported as skips.
func Fig8Grid5D() Grid {
	return Grid{
		Name:   "fig8-5d",
		Models: []model.Spec{model.Llama3_8B, model.Mixtral8x7B},
		GPUs:   []model.GPU{model.A100},
		Fabrics: []FabricKind{
			Electrical, Photonic, PhotonicProvisioned, PhotonicStatic,
		},
		LatenciesMS: []float64{1, 10, 100},
		Parallelisms: []Parallelism{
			{TP: 4, DP: 2, PP: 2},        // 3D: the Fig. 8 baseline
			{TP: 4, DP: 1, CP: 2, PP: 2}, // 4D: +context parallelism
			{TP: 4, DP: 1, EP: 2, PP: 2}, // 5D: +expert parallelism (MoE only)
		},
		Schedules:      []workload.Schedule{workload.OneFOneB},
		NIC:            topo.TwoPort200G,
		Microbatches:   12,
		MicrobatchSize: 2,
		Iterations:     2,
	}
}

// Grids lists the built-in named grids.
func Grids() map[string]func() Grid {
	return map[string]func() Grid{
		"fig8-5d": Fig8Grid5D,
	}
}
