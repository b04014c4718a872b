package scenario

import (
	"reflect"
	"strings"
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/topo"
	"photonrail/internal/workload"
)

func TestParallelism(t *testing.T) {
	p := Parallelism{TP: 4, DP: 2, PP: 2}
	if p.NumNodes() != 4 || p.ScaleOutAxes() != 2 || p.String() != "tp4-dp2-pp2" {
		t.Errorf("3D: nodes=%d axes=%d s=%q", p.NumNodes(), p.ScaleOutAxes(), p)
	}
	p5 := Parallelism{TP: 4, DP: 2, PP: 2, CP: 2, EP: 2}
	if p5.NumNodes() != 16 || p5.ScaleOutAxes() != 4 {
		t.Errorf("5D: nodes=%d axes=%d", p5.NumNodes(), p5.ScaleOutAxes())
	}
	if p5.String() != "tp4-dp2-cp2-ep2-pp2" {
		t.Errorf("5D string = %q", p5)
	}
	// Disabled axes (0 or 1) don't multiply the node count.
	p1 := Parallelism{TP: 8, DP: 4, PP: 1, CP: 1, EP: 0}
	if p1.NumNodes() != 4 || p1.ScaleOutAxes() != 1 {
		t.Errorf("dp-only: nodes=%d axes=%d", p1.NumNodes(), p1.ScaleOutAxes())
	}
}

func TestFabricKindNames(t *testing.T) {
	for _, k := range []FabricKind{Electrical, Photonic, PhotonicProvisioned, PhotonicStatic} {
		got, ok := FabricKindByName(k.String())
		if !ok || got != k {
			t.Errorf("round trip %v -> %q -> %v, %v", k, k.String(), got, ok)
		}
	}
	if _, ok := FabricKindByName("teleport"); ok {
		t.Error("unknown kind parsed")
	}
}

func TestExpandDefaults(t *testing.T) {
	cells := Grid{}.Expand()
	// Defaults: 1 model x 1 GPU x 1 par x 1 sched x 1 jitter x 1 eager x
	// (electrical + photonic@10ms) = 2 cells.
	if len(cells) != 2 {
		t.Fatalf("default grid = %d cells", len(cells))
	}
	if cells[0].Fabric != Electrical || cells[1].Fabric != Photonic || cells[1].LatencyMS != 10 {
		t.Errorf("cells = %+v", cells)
	}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Microbatches != 12 || c.MicrobatchSize != 2 || c.Iterations != 2 || c.NIC != topo.TwoPort200G {
			t.Errorf("scalar defaults not applied: %+v", c)
		}
		if got := c.Skip(); got != "" {
			t.Errorf("default cell %d infeasible: %s", i, got)
		}
	}
}

func TestExpandDeterministicOrder(t *testing.T) {
	g := Fig8Grid5D()
	a, b := g.Expand(), g.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("expansion not deterministic")
	}
	// 2 models x 1 GPU x 3 parallelisms x (electrical + 3 photonic +
	// 3 provisioned + static) = 2*3*8 = 48 cells.
	if len(a) != 48 {
		t.Fatalf("fig8-5d = %d cells", len(a))
	}
	// Latency crosses only reconfiguring kinds: every electrical/static
	// cell carries latency 0.
	for _, c := range a {
		if (c.Fabric == Electrical || c.Fabric == PhotonicStatic) && c.LatencyMS != 0 {
			t.Errorf("non-reconfiguring cell %s has latency %v", c.Name(), c.LatencyMS)
		}
	}
}

func TestCellSkipReasons(t *testing.T) {
	base := Grid{}.Expand()[0] // feasible defaults
	tests := []struct {
		mutate func(*Cell)
		want   string
	}{
		{func(c *Cell) { c.Par.EP = 2 }, "mixture-of-experts"},
		{func(c *Cell) { c.Model = model.Mixtral8x7B; c.Par.EP = 16 }, "exceeds 8 experts"},
		{func(c *Cell) { c.Par.PP = 5 }, "not divisible by PP"},
		{func(c *Cell) { c.Par.PP = 16; c.Microbatches = 12 }, "cannot fill"},
		{func(c *Cell) { c.Fabric = PhotonicStatic; c.Par.CP = 2 }, "(C2)"},
		{func(c *Cell) { c.Par.DP = 0 }, "invalid degrees"},
	}
	for _, tc := range tests {
		c := base
		tc.mutate(&c)
		got := c.Skip()
		if !strings.Contains(got, tc.want) {
			t.Errorf("skip = %q, want containing %q", got, tc.want)
		}
	}
	// Static with one scale-out axis fits a 2-port NIC; with two axes it
	// needs 4 ports.
	c := base
	c.Fabric = PhotonicStatic
	if got := c.Skip(); !strings.Contains(got, "C2") {
		t.Errorf("dp+pp static on 2 ports = %q, want C2 skip", got)
	}
	c.NIC = topo.FourPort100G
	if got := c.Skip(); got != "" {
		t.Errorf("dp+pp static on 4 ports = %q, want feasible", got)
	}
}

func TestGridValidate(t *testing.T) {
	if err := (Grid{}).Validate(); err != nil {
		t.Errorf("default grid invalid: %v", err)
	}
	if err := (Grid{LatenciesMS: []float64{-1}}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if err := (Grid{JitterFracs: []float64{1.5}}).Validate(); err == nil {
		t.Error("jitter >= 1 accepted")
	}
	if err := (Grid{Fabrics: []FabricKind{FabricKind(42)}}).Validate(); err == nil {
		t.Error("unknown fabric kind accepted")
	}
	// It would simulate as 1F1B under another name.
	if err := (Grid{Schedules: []workload.Schedule{workload.GPipe, workload.Schedule(7)}}).Validate(); err == nil {
		t.Error("unknown pipeline schedule accepted")
	}
	if err := (Grid{Microbatches: -1}).Validate(); err == nil {
		t.Error("negative microbatches accepted")
	}
}

// TestResultRenderers: a grid's result is its rows, RowOf renders a
// cell's coordinates and status into one, and the table and CSV
// renderers take the rows as they are.
func TestResultRenderers(t *testing.T) {
	cells := Grid{Name: "t", Fabrics: []FabricKind{Electrical, Photonic, PhotonicStatic}}.Expand()
	var rows []Row
	for _, c := range cells {
		row := RowOf(c, c.Skip())
		if row.Status == "ok" {
			row.MeanIterationSeconds, row.Slowdown = 12.5, 1.25
		}
		rows = append(rows, row)
	}
	// The static cell violates C2 on the default NIC.
	if len(rows) != 3 || rows[0].Status != "ok" || rows[2].Status != "skip" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[2].SkipReason == "" || rows[2].Slowdown != 0 {
		t.Errorf("skip row carries metrics: %+v", rows[2])
	}
	if rows[1].Cell != cells[1].Name() || rows[1].Fabric != "photonic" || rows[1].LatencyMS != 10 || rows[1].TP != 4 {
		t.Errorf("row 1 = %+v, want cell %s's coordinates", rows[1], cells[1].Name())
	}
	tbl := TableFromRows("t", rows).String()
	for _, want := range []string{`Scenario grid "t"`, "skip: ", "1.2500", "Llama3-8B"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	var csv strings.Builder
	if err := CSVTableFromRows(rows).CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "cell,model,gpu,fabric,latency_ms") {
		t.Errorf("csv header:\n%s", csv.String())
	}
	// Skip reasons contain commas and parens; the CSV escaper must keep
	// one record per cell.
	if got := strings.Count(csv.String(), "\n"); got != 4 {
		t.Errorf("csv lines = %d, want 4 (header + 3 cells):\n%s", got, csv.String())
	}
}

func TestGridsRegistry(t *testing.T) {
	g, ok := Grids()["fig8-5d"]
	if !ok {
		t.Fatal("fig8-5d missing from registry")
	}
	if got := g(); got.Name != "fig8-5d" || len(got.Expand()) < 24 {
		t.Errorf("fig8-5d = %q with %d cells", got.Name, len(got.Expand()))
	}
}
