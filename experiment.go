package photonrail

// The experiment registry: every figure, table, and scenario grid the
// repository reproduces is a named, parameterized, cancellable
// Experiment. The registry is the single entry point every client
// shares — the cmd/railclient CLI, the raild daemon (which serves
// exp_req frames for any registered name), and library callers. Beside
// it, the package-level Simulate, SweepReconfigLatency, AnalyzeWindows
// and CostComparison keep their historical signatures, and the Engine
// has a context form of each engine-backed call (SimulateCtx,
// SweepReconfigLatencyCtx, AnalyzeWindowsCtx, CostComparisonCtx). A
// grid's one result is its rows: the grid experiments, Engine.RunGrid
// and Engine.RunCellRowsCtx all return them, rendered once per cell.
//
// The cancellation contract, top to bottom:
//
//   - Experiment.Run(ctx, …) with a cancelled ctx returns ctx.Err()
//     promptly: fan-out stops scheduling new simulation jobs and the
//     caller does not wait for in-flight ones to wind down;
//   - simulations other callers share (via the engine's memo cache) are
//     never killed by one caller's cancellation — the computation
//     finishes for the survivors, and only becomes cancellable when its
//     last waiter departs (see internal/exp's detached singleflight);
//   - an abandoned, cancelled computation is not memoized, so a later
//     request recomputes cleanly.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"photonrail/internal/cost"
	"photonrail/internal/exp"
	"photonrail/internal/parallelism"
	"photonrail/internal/report"
	"photonrail/internal/scenario"
	"photonrail/internal/topo"
)

// Compile-time proof that the historical package-level signatures
// survive unchanged (the compatibility contract of this API).
var (
	_ func(Workload, []float64) ([]SweepPoint, error) = SweepReconfigLatency
	_ func(Workload) (*WindowReport, error)           = AnalyzeWindows
	_ func() ([]cost.Fig7Row, error)                  = CostComparison
)

// Params parameterizes an Experiment run. Zero values take each
// experiment's documented defaults, so Params{} runs every experiment
// at its paper-canonical scale.
type Params struct {
	// Iterations is the training iteration count for fig8 simulations
	// (0 = 2).
	Iterations int
	// WindowIterations is the iteration count for the trace/window
	// analyses — fig3, fig4, window-analysis (0 = 10).
	WindowIterations int
	// LatenciesMS is fig8's x-axis (nil = the paper's PaperLatenciesMS).
	LatenciesMS []float64
	// Rail selects the rail for the fig3 timeline.
	Rail int
	// GPUs is the cluster size for the bom experiment (0 = 8192).
	GPUs int
	// Grid supplies the scenario grid for the "grid" experiment (nil =
	// the paper-default custom grid). Built-in grid experiments (e.g.
	// "fig8-5d") run their registered grid when Grid is nil and the
	// given spec — typically the registered grid's axes with CLI
	// overrides applied — otherwise.
	Grid *GridSpec
	// OnProgress, when non-nil, receives per-cell completion ticks from
	// grid experiments (completion order; it must not block).
	OnProgress func(done, total int)
}

// ParamInfo documents one parameter an experiment honors, for
// discoverable listings (railclient -list, the daemon's catalog).
type ParamInfo struct {
	// Name is the Params field consulted.
	Name string
	// Default is the zero-value meaning, as a human-readable string.
	Default string
	// Doc is a one-line description.
	Doc string
}

// Section is one ordered unit of an experiment's rendered output:
// either a table or verbatim text (separators, footers). Rendering a
// result is the plain concatenation of its sections, so the registry
// reproduces each historical CLI's output byte for byte.
type Section struct {
	// Table, when non-nil, renders as an aligned table (or CSV in CSV
	// mode) followed by nothing — spacing lives in Text sections.
	Table *report.Table
	// Text is written verbatim when Table is nil.
	Text string
}

// ExperimentResult is one completed experiment run: the ordered
// rendering sections plus the structured rows scripted consumers get
// from JSON output.
type ExperimentResult struct {
	// Experiment is the registry name that produced the result.
	Experiment string
	// Grid is the executed grid's name for grid experiments ("" otherwise).
	Grid string
	// Sections is the aligned-text rendering, in order. A grid result
	// (Rows of type GridRows) leaves it nil: its table and CSV are
	// built from the rows when RenderText or RenderCSV is called, so a
	// caller that only wants JSON never builds a table.
	Sections []Section
	// Rows is the structured payload: exactly what -json emits.
	Rows any

	// rowJSON holds a grid run's rows as rendered bytes, in Cells
	// order: RenderJSON joins them instead of encoding Rows again.
	rowJSON [][]byte
}

// RenderText writes the aligned-text rendering: tables aligned, text
// sections verbatim, concatenated in order.
func (r *ExperimentResult) RenderText(w io.Writer) error {
	return renderSections(w, r.sections(false), false)
}

// RenderCSV writes the CSV rendering: each table as CSV, text sections
// verbatim.
func (r *ExperimentResult) RenderCSV(w io.Writer) error {
	return renderSections(w, r.sections(true), true)
}

// sections returns what a text (or CSV) rendering writes. A grid
// result builds it from its rows: the aligned table plus the ok/skip
// footer, or the fully numeric CSV table alone. Any other result
// renders its Sections.
func (r *ExperimentResult) sections(csv bool) []Section {
	g, ok := r.Rows.(GridRows)
	if !ok {
		return r.Sections
	}
	if csv {
		return []Section{{Table: scenario.CSVTableFromRows(g.Cells)}}
	}
	skipped := 0
	for _, row := range g.Cells {
		if row.Status == "skip" {
			skipped++
		}
	}
	return []Section{
		{Table: scenario.TableFromRows(g.Grid, g.Cells)},
		{Text: fmt.Sprintf("\n%d cells: %d ok, %d skipped\n", len(g.Cells), len(g.Cells)-skipped, skipped)},
	}
}

// RenderJSON writes the structured rows as indented JSON. A grid
// experiment's Run renders each row once, as the engine computes it,
// and RenderJSON joins those bytes with AppendGridJSON: the same bytes
// report.JSON writes for its Rows, which callers must treat as
// read-only.
func (r *ExperimentResult) RenderJSON(w io.Writer) error {
	if g, ok := r.Rows.(GridRows); ok && r.rowJSON != nil {
		_, err := w.Write(AppendGridJSON(nil, g.Grid, r.rowJSON))
		return err
	}
	return report.JSON(w, r.Rows)
}

func renderSections(w io.Writer, sections []Section, csv bool) error {
	for _, s := range sections {
		if s.Table != nil {
			var err error
			if csv {
				err = s.Table.CSV(w)
			} else {
				err = s.Table.Render(w)
			}
			if err != nil {
				return err
			}
			continue
		}
		if _, err := io.WriteString(w, s.Text); err != nil {
			return err
		}
	}
	return nil
}

// Experiment is a named, parameterized, cancellable experiment — one
// unit of the registry.
type Experiment struct {
	// Name is the registry key (also the CLI spelling).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Params documents the Params fields the experiment honors.
	Params []ParamInfo

	run func(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error)
}

// Run executes the experiment on the engine (nil = DefaultEngine) with
// the given parameters. A cancelled ctx returns ctx.Err() promptly; see
// the package cancellation contract above.
func (e Experiment) Run(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	if e.run == nil {
		return nil, fmt.Errorf("photonrail: experiment %q is not runnable", e.Name)
	}
	if en == nil {
		en = DefaultEngine()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := e.run(ctx, en, p)
	if err != nil {
		return nil, err
	}
	res.Experiment = e.Name
	return res, nil
}

// Experiments lists the registry sorted by name.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Lookup finds a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// Defaults shared by the registry entries and their CLI wrappers.
const (
	defaultFig8Iterations   = 2
	defaultWindowIterations = 10
	defaultBOMGPUs          = 8192
)

func fig8Iterations(p Params) int {
	if p.Iterations > 0 {
		return p.Iterations
	}
	return defaultFig8Iterations
}

func windowIterations(p Params) int {
	if p.WindowIterations > 0 {
		return p.WindowIterations
	}
	return defaultWindowIterations
}

// Fig4Summary is the scripted-consumer shape of the fig4 experiment:
// the per-rail window-size quantiles and the rail-0 traffic-class
// breakdown (the -format json fig4 payload).
type Fig4Summary struct {
	FractionOver1ms float64           `json:"fractionOver1ms"`
	PerRail         []Fig4RailSummary `json:"perRail"`
	Breakdown       []Fig4Class       `json:"breakdown"`
}

// Fig4RailSummary is one rail's window-size quantiles in milliseconds.
type Fig4RailSummary struct {
	Rail  int     `json:"rail"`
	N     int     `json:"n"`
	P50MS float64 `json:"p50ms"`
	P90MS float64 `json:"p90ms"`
	MaxMS float64 `json:"maxms"`
}

// Fig4Class is one traffic class of the Fig. 4b breakdown.
type Fig4Class struct {
	Class         string  `json:"class"`
	Count         int     `json:"count"`
	MeanWindowMS  float64 `json:"meanWindowMS"`
	MeanBytesNext float64 `json:"meanBytesAfter"`
}

// Fig4SummaryOf flattens a window report into the summary shape.
func Fig4SummaryOf(rep *WindowReport) Fig4Summary {
	out := Fig4Summary{FractionOver1ms: rep.FractionOver1ms}
	for rail := 0; ; rail++ {
		c, ok := rep.PerRailCDF[rail]
		if !ok {
			break
		}
		out.PerRail = append(out.PerRail, Fig4RailSummary{
			Rail: rail, N: c.N(),
			P50MS: c.Quantile(0.50), P90MS: c.Quantile(0.90), MaxMS: c.Quantile(1),
		})
	}
	for _, b := range rep.Breakdown.Buckets() {
		out.Breakdown = append(out.Breakdown, Fig4Class{
			Class: b.Label, Count: b.Count, MeanWindowMS: b.Mean(),
			MeanBytesNext: rep.BreakdownBytes[b.Label],
		})
	}
	return out
}

// Fig8Sweep pairs the fig8 sweep points with the workload scale they
// were simulated at (the -format json fig8 payload).
type Fig8Sweep struct {
	Iterations int          `json:"iterations"`
	Points     []SweepPoint `json:"points"`
}

// GridRows is the scripted-consumer shape of a grid experiment: the
// grid's name plus its flat, wire-encodable rows (the railclient
// -format json document).
type GridRows struct {
	Grid  string         `json:"grid"`
	Cells []scenario.Row `json:"cells"`
}

// GridRow is one executed (or skipped) grid cell as a grid's JSON
// rendering carries it: its flat Row and that row's indented JSON
// (GridRowJSON). An engine renders each row once and keeps it beside
// the memoized result that produced it, so the rows a run returns are
// shared: treat both fields as read-only.
type GridRow struct {
	Row  scenario.Row
	JSON []byte
}

// GridRowJSON renders one row as a grid's JSON rendering carries it:
// indented, at the depth of an element of GridRows' "cells". The
// engine's rows and rows a daemon sends structured both go through it,
// so AppendGridJSON joins the same bytes whichever way a row arrived.
func GridRowJSON(row scenario.Row) ([]byte, error) {
	return json.MarshalIndent(row, "    ", "  ")
}

// The fixed text of a grid's JSON rendering around its rows.
const (
	gridJSONHead  = "{\n  \"grid\": "
	gridJSONCells = ",\n  \"cells\": ["
	gridJSONRow   = "\n    "
	gridJSONTail  = "\n  ]\n}\n"
	gridJSONEmpty = "]\n}\n"
)

// AppendGridJSON appends a grid's JSON rendering to dst, built from each
// row's GridRowJSON bytes in cell order: byte for byte what report.JSON
// writes for GridRows{Grid: name, Cells: rows}, with no row decoded or
// encoded again. dst grows at most once.
func AppendGridJSON(dst []byte, name string, rows [][]byte) []byte {
	quoted, _ := json.Marshal(name) // a string always marshals
	n := len(gridJSONHead) + len(quoted) + len(gridJSONCells) + len(gridJSONTail)
	for _, row := range rows {
		n += len(gridJSONRow) + len(row) + 1 // its separator and comma
	}
	dst = slices.Grow(dst, n)
	dst = append(append(append(dst, gridJSONHead...), quoted...), gridJSONCells...)
	if len(rows) == 0 {
		return append(dst, gridJSONEmpty...)
	}
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(dst, gridJSONRow...), row...)
	}
	return append(dst, gridJSONTail...)
}

// tableExperiment registers a static-table experiment: one table, one
// trailing blank line.
func tableExperiment(name, description string, build func() *report.Table) Experiment {
	return Experiment{
		Name:        name,
		Description: description,
		run: func(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
			t := build()
			return &ExperimentResult{
				Sections: []Section{{Table: t}, {Text: "\n"}},
				Rows:     t,
			}, nil
		},
	}
}

var paramIterations = ParamInfo{Name: "Iterations", Default: "2", Doc: "training iterations per simulation"}
var paramWindowIterations = ParamInfo{Name: "WindowIterations", Default: "10", Doc: "iterations traced for the window analysis"}

// registry is the experiment table; built at init from the static
// entries plus one entry per built-in scenario grid.
var registry = buildRegistry()

func buildRegistry() map[string]Experiment {
	reg := make(map[string]Experiment)
	add := func(e Experiment) {
		reg[e.Name] = e
	}

	add(tableExperiment("table1", "Table 1: rule-of-thumb LLM parallelism strategies", Table1))
	add(tableExperiment("table2", "Table 2: characteristics of parallelism strategies", Table2))
	add(tableExperiment("table3", "Table 3: Opus scalability-latency tradeoff", Table3))

	add(Experiment{
		Name:        "eq1",
		Description: "Eq. 1: inter-parallelism windows per training iteration",
		run:         runEq1,
	})
	add(Experiment{
		Name:        "fig3",
		Description: "Fig. 3: per-rail communication timeline of one iteration",
		Params: []ParamInfo{
			paramWindowIterations,
			{Name: "Rail", Default: "0", Doc: "rail whose timeline is rendered"},
		},
		run: runFig3,
	})
	add(Experiment{
		Name:        "fig4",
		Description: "Fig. 4: window-size summary and rail-0 traffic breakdown",
		Params:      []ParamInfo{paramWindowIterations},
		run:         runFig4,
	})
	add(Experiment{
		Name:        "window-analysis",
		Description: "Fig. 4 in full: per-rail window CDF quantiles and breakdown",
		Params:      []ParamInfo{paramWindowIterations},
		run:         runWindowAnalysis,
	})
	add(Experiment{
		Name:        "fig7",
		Description: "Fig. 7: GPU-backend network cost and power across cluster sizes",
		run:         runFig7,
	})
	add(Experiment{
		Name:        "fig8",
		Description: "Fig. 8: normalized iteration time vs reconfiguration latency",
		Params: []ParamInfo{
			paramIterations,
			{Name: "LatenciesMS", Default: "paper x-axis", Doc: "reconfiguration latencies swept, in ms"},
		},
		run: runFig8,
	})
	add(Experiment{
		Name:        "bom",
		Description: "Per-design bills of materials at one cluster size",
		Params: []ParamInfo{
			{Name: "GPUs", Default: "8192", Doc: "cluster size priced"},
		},
		run: runBOM,
	})

	add(Experiment{
		Name:        "grid",
		Description: "Run a custom scenario grid (Params.Grid)",
		Params: []ParamInfo{
			{Name: "Grid", Default: "paper-default grid", Doc: "wire-encodable scenario grid spec"},
			{Name: "OnProgress", Default: "none", Doc: "per-cell completion hook"},
		},
		run: func(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
			var spec GridSpec
			if p.Grid != nil {
				spec = *p.Grid
			}
			if spec.Name == "" {
				spec.Name = "custom"
			}
			g, err := spec.Resolve()
			if err != nil {
				return nil, err
			}
			return en.RunGrid(ctx, g, p.OnProgress)
		},
	})
	for name, mk := range scenario.Grids() {
		mk := mk
		add(Experiment{
			Name:        name,
			Description: fmt.Sprintf("Built-in scenario grid %q", name),
			Params: []ParamInfo{
				{Name: "Grid", Default: "the registered grid", Doc: "optional spec overriding the built-in axes"},
				{Name: "OnProgress", Default: "none", Doc: "per-cell completion hook"},
			},
			run: func(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
				g := mk()
				if p.Grid != nil {
					var err error
					if g, err = p.Grid.Resolve(); err != nil {
						return nil, err
					}
				}
				return en.RunGrid(ctx, g, p.OnProgress)
			},
		})
	}
	return reg
}

func runEq1(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	t := report.NewTable("Eq. 1: windows per iteration",
		"Workload", "PP", "Layers", "Microbatches", "CP", "EP", "Windows")
	add := func(label string, pp, layers, mb int, cp, ep bool) error {
		n, err := WindowCount(pp, layers, mb, cp, ep)
		if err != nil {
			return err
		}
		t.AddRow(label, pp, layers, mb, cp, ep, n)
		return nil
	}
	if err := add("Llama3-8B (paper §3.1)", 2, 32, 12, false, false); err != nil {
		return nil, err
	}
	if err := add("Llama3.1-405B (1k H100)", 16, 126, 16, true, false); err != nil {
		return nil, err
	}
	if err := add("5D (CP+EP)", 4, 32, 8, true, true); err != nil {
		return nil, err
	}
	n, err := WindowCount(16, 126, 16, true, false)
	if err != nil {
		return nil, err
	}
	footer := fmt.Sprintf("Llama3.1-405B: %.1f windows/second at 20s iterations (paper: ~6/s)\n\n",
		parallelism.WindowsPerSecond(n, 20))
	return &ExperimentResult{
		Sections: []Section{{Table: t}, {Text: "\n"}, {Text: footer}},
		Rows:     t,
	}, nil
}

func runFig3(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	iters := windowIterations(p)
	rep, err := en.AnalyzeWindowsCtx(ctx, PaperWorkload(iters))
	if err != nil {
		return nil, err
	}
	iter := 1
	if iters < 2 {
		iter = 0
	}
	t := TimelineTable(rep.Trace, p.Rail, iter)
	return &ExperimentResult{
		Sections: []Section{{Table: t}, {Text: "\n"}},
		Rows:     t,
	}, nil
}

func runFig4(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	rep, err := en.AnalyzeWindowsCtx(ctx, PaperWorkload(windowIterations(p)))
	if err != nil {
		return nil, err
	}
	sum := Fig4SummaryOf(rep)
	summary := report.NewTable("Fig. 4: window-size summary per rail (ms)",
		"Rail", "N", "p50", "p90", "max")
	for _, r := range sum.PerRail {
		summary.AddRow(fmt.Sprintf("rail%d", r.Rail+1), r.N,
			fmt.Sprintf("%.3g", r.P50MS), fmt.Sprintf("%.3g", r.P90MS), fmt.Sprintf("%.3g", r.MaxMS))
	}
	breakdown := report.NewTable("Fig. 4b: rail-0 windows by following traffic",
		"Traffic class", "Count", "Avg window (ms)", "Avg bytes after")
	for _, c := range sum.Breakdown {
		breakdown.AddRow(c.Class, c.Count, fmt.Sprintf("%.3g", c.MeanWindowMS), fmt.Sprintf("%.3g", c.MeanBytesNext))
	}
	return &ExperimentResult{
		Sections: []Section{
			{Table: summary},
			{Text: fmt.Sprintf("windows over 1ms: %.0f%%\n", 100*sum.FractionOver1ms)},
			{Table: breakdown},
			{Text: "\n"},
		},
		Rows: sum,
	}, nil
}

func runWindowAnalysis(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	rep, err := en.AnalyzeWindowsCtx(ctx, PaperWorkload(windowIterations(p)))
	if err != nil {
		return nil, err
	}
	cdf, breakdown := Fig4Tables(rep)
	return &ExperimentResult{
		Sections: []Section{
			{Table: cdf},
			{Text: "\n"},
			{Table: breakdown},
			{Text: "\n"},
			{Text: fmt.Sprintf("windows over 1ms: %.0f%% (paper: >75%%)\n", 100*rep.FractionOver1ms)},
		},
		Rows: Fig4SummaryOf(rep),
	}, nil
}

func runFig7(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	rows, err := en.CostComparisonCtx(ctx)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		Sections: []Section{{Table: Fig7RowsTable(rows)}, {Text: "\n"}},
		Rows:     rows,
	}, nil
}

func runFig8(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	iters := fig8Iterations(p)
	points, err := en.SweepReconfigLatencyCtx(ctx, PaperWorkload(iters), p.LatenciesMS)
	if err != nil {
		return nil, err
	}
	return &ExperimentResult{
		Sections: []Section{{Table: Fig8Table(points)}, {Text: "\n"}},
		Rows:     Fig8Sweep{Iterations: iters, Points: points},
	}, nil
}

func runBOM(ctx context.Context, en *Engine, p Params) (*ExperimentResult, error) {
	gpus := p.GPUs
	if gpus == 0 {
		gpus = defaultBOMGPUs
	}
	if gpus <= 0 {
		return nil, fmt.Errorf("photonrail: bom needs a positive GPU count, got %d", gpus)
	}
	cat := cost.DefaultCatalog()
	ft, err := cost.FatTree(gpus, cat)
	if err != nil {
		return nil, err
	}
	rail, err := cost.RailOptimized(gpus, topo.DGXH200GPUsPerNode, cat)
	if err != nil {
		return nil, err
	}
	op, err := cost.Opus(gpus, topo.DGXH200GPUsPerNode, cat)
	if err != nil {
		return nil, err
	}
	boms := []cost.BOM{ft, rail, op}
	var sections []Section
	for _, b := range boms {
		t := report.NewTable(fmt.Sprintf("%s bill of materials (%d GPUs)", b.Design, b.GPUs),
			"Component", "Count", "Unit price", "Unit power")
		for _, it := range b.Items {
			t.AddRow(it.Device.Name, it.Count, it.Device.Price, it.Device.Power)
		}
		t.AddRow("TOTAL", "", b.TotalCost(), b.TotalPower())
		sections = append(sections, Section{Table: t}, Section{Text: "\n"})
	}
	costFrac, powerFrac := cost.Savings(rail, op)
	sections = append(sections, Section{Text: fmt.Sprintf(
		"Opus vs rail-optimized at %d GPUs: cost -%.1f%%, power -%.2f%% (paper: up to -70.5%% / -95.84%%)\n",
		gpus, 100*costFrac, 100*powerFrac)})
	return &ExperimentResult{Sections: sections, Rows: boms}, nil
}

// GridExperimentResult shapes executed grid rows as the grid
// experiment's result. It holds only the {"grid","cells"} rows; the
// aligned grid table (plus its ok/skip footer) and the fully
// numeric CSV table are built from them when rendered. Rows are all a
// renderer needs, so rows merged from several daemons, or decoded from
// a result's JSON rendering, render byte-identically to a
// single-daemon (or local) run.
func GridExperimentResult(name string, rows []scenario.Row) *ExperimentResult {
	return &ExperimentResult{Grid: name, Rows: GridRows{Grid: name, Cells: rows}}
}

// DescribeExperiments renders the registry as a human-readable listing:
// one line per experiment plus its honored parameters — the catalog
// railclient -list prints and the golden registry-surface test pins.
func DescribeExperiments(w io.Writer) error {
	for _, e := range Experiments() {
		if _, err := fmt.Fprintf(w, "%-16s %s\n", e.Name, e.Description); err != nil {
			return err
		}
		for _, p := range e.Params {
			if _, err := fmt.Fprintf(w, "%-18s.%s (default %s): %s\n", "", p.Name, p.Default, p.Doc); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExperimentKey is the canonical content-address of one experiment
// invocation: 64 lowercase hex digits, the sha256 of exp.KeyEncoder's
// encoding (format exp.KeyVersion) of the key name "exp", the registry
// name, and every Params field that can affect the result, in
// declaration order: Iterations, WindowIterations, LatenciesMS, Rail,
// GPUs, and every field of the Grid spec. OnProgress is observational
// and excluded. A nil Grid encodes like an empty spec, and a nil list
// like an empty one (both mean the default, and the wire omits empty
// lists). The raild daemon keys its request-level singleflight on it,
// and the railgate front door keys its durable result store on the same
// hash — so identical requests coalesce in flight, dedup across
// daemons, and resolve to one stored object across restarts.
// Parameters are otherwise hashed as given: a zero value and its
// spelled-out default produce different keys even though they run
// identically, as the daemon's singleflight has always keyed them.
func ExperimentKey(name string, p Params) string {
	e := exp.NewKeyEncoder("exp")
	e.String(name)
	e.Int(p.Iterations)
	e.Int(p.WindowIterations)
	e.Float64s(p.LatenciesMS)
	e.Int(p.Rail)
	e.Int(p.GPUs)
	var spec GridSpec
	if p.Grid != nil {
		spec = *p.Grid
	}
	spec.AppendKey(&e)
	return e.Sum("")
}

// ExperimentNames lists the registered experiment names, sorted.
func ExperimentNames() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IsGridExperiment reports whether the named experiment executes a
// scenario grid (and therefore honors Params.Grid / renders grid rows).
func IsGridExperiment(name string) bool {
	if name == "grid" {
		return true
	}
	_, ok := scenario.Grids()[name]
	return ok
}
