package photonrail

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"photonrail/internal/goldentest"
	"photonrail/internal/scenario"
)

// TestExperimentsGoldenListing pins the registry surface — names,
// descriptions, and parameter schemas — byte for byte, so an
// accidentally dropped or renamed experiment fails loudly. Regenerate
// intentionally with `go test . -run ExperimentsGolden -update`.
func TestExperimentsGoldenListing(t *testing.T) {
	var out bytes.Buffer
	if err := DescribeExperiments(&out); err != nil {
		t.Fatal(err)
	}
	goldentest.Check(t, out.Bytes(), filepath.Join("testdata", "golden", "experiments.txt"))
}

func TestLookupKnownAndUnknown(t *testing.T) {
	for _, name := range []string{"table1", "table2", "table3", "eq1", "fig3", "fig4",
		"window-analysis", "fig7", "fig8", "bom", "grid", "fig8-5d"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) missing", name)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted an unknown experiment")
	}
	names := ExperimentNames()
	if len(names) != len(Experiments()) {
		t.Fatalf("names = %d, experiments = %d", len(names), len(Experiments()))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// TestExperimentOutputsMatchLegacySignatures proves the registry
// entries are thin wrappers: the table an experiment renders is byte
// identical to what the historical package-level call produces.
func TestExperimentOutputsMatchLegacySignatures(t *testing.T) {
	en := NewEngine(2)

	e, _ := Lookup("table3")
	res, err := e.Run(context.Background(), en, Params{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := res.RenderText(&got); err != nil {
		t.Fatal(err)
	}
	if err := Table3().Render(&want); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if got.String() != want.String() {
		t.Errorf("table3 diverged from the legacy rendering:\n got: %q\nwant: %q", got.String(), want.String())
	}

	e, _ = Lookup("fig8")
	res, err = e.Run(context.Background(), en, Params{Iterations: 1, LatenciesMS: []float64{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	points, err := en.SweepReconfigLatencyCtx(context.Background(), PaperWorkload(1), []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	want.Reset()
	if err := res.RenderText(&got); err != nil {
		t.Fatal(err)
	}
	if err := Fig8Table(points).Render(&want); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if got.String() != want.String() {
		t.Errorf("fig8 diverged from the legacy rendering:\n got: %q\nwant: %q", got.String(), want.String())
	}
}

// TestFig8CancelledCtxReturnsPromptly is the acceptance criterion:
// Lookup("fig8").Run with a cancelled ctx returns promptly without
// duplicating or killing in-flight shared simulations. A background
// runner starts the sweep; a second caller with a cancellable context
// joins the same engine, cancels mid-flight, and must get ctx.Err()
// quickly while the first run completes and the cache shows no
// duplicated simulations.
func TestFig8CancelledCtxReturnsPromptly(t *testing.T) {
	en := NewEngine(2)
	fig8, ok := Lookup("fig8")
	if !ok {
		t.Fatal("fig8 not registered")
	}
	p := Params{Iterations: 1, LatenciesMS: []float64{0, 5, 10}}

	// Pre-cancelled: prompt error, nothing simulated.
	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	start := time.Now()
	if _, err := fig8.Run(pre, en, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled Run took %v", d)
	}
	if st := en.CacheStats(); st.Misses != 0 {
		t.Fatalf("pre-cancelled run simulated: %+v", st)
	}

	type outcome struct {
		res *ExperimentResult
		err error
	}
	full := make(chan outcome, 1)
	go func() {
		res, err := fig8.Run(context.Background(), en, p)
		full <- outcome{res, err}
	}()
	// Wait until the shared sweep has simulations in flight, then cancel
	// a second caller that joined them.
	deadline := time.Now().Add(10 * time.Second)
	for en.CacheStats().Misses == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := fig8.Run(ctx, en, p)
		cancelled <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the second caller join in-flight keys
	cancel()
	select {
	case err := <-cancelled:
		// The joiner may have finished first if the sweep was quick;
		// both a clean result and a prompt cancellation are in-contract.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled fig8 run did not return promptly")
	}
	out := <-full
	if out.err != nil {
		t.Fatalf("shared run err = %v (a cancelled joiner must not kill shared simulations)", out.err)
	}
	rows, ok := out.res.Rows.(Fig8Sweep)
	if !ok || len(rows.Points) != 3 {
		t.Fatalf("rows = %#v", out.res.Rows)
	}
	// 3 latency points × (baseline + reactive + provisioned), deduped:
	// baseline once, reactive@0/5/10, provisioned@0/5/10 = 7 runs, plus
	// the Build stage's one compiled program, which every fabric shares,
	// = 8 distinct misses. The cancelled joiner must not have
	// duplicated any — but if it raced the shared run's completion it
	// may legitimately have re-simulated nothing at most. Allow the
	// exact count only.
	if st := en.CacheStats(); st.Misses != 8 {
		t.Fatalf("misses = %d, want 8 (no duplicated simulations)", st.Misses)
	}
}

// TestGridExperimentMatchesRunGrid pins the grid experiment, which
// resolves a spec, against Engine.RunGrid over the resolved grid on a
// fresh engine, in every rendering, and pins the text rendering's
// shape: the grid table plus its ok/skip footer.
func TestGridExperimentMatchesRunGrid(t *testing.T) {
	en := NewEngine(2)
	spec := GridSpec{
		Models: []string{"Llama3-8B"}, Fabrics: []string{"electrical", "static"},
		Parallelisms: []GridParallelism{{TP: 4, DP: 2, PP: 2}}, Iterations: 1,
	}
	e, _ := Lookup("grid")
	var ticks int
	res, err := e.Run(context.Background(), en, Params{Grid: &spec, OnProgress: func(done, total int) { ticks++ }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid != "custom" {
		t.Errorf("grid name = %q", res.Grid)
	}
	if ticks == 0 {
		t.Error("no progress ticks")
	}
	g, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	g.Name = "custom"
	direct, err := NewEngine(1).RunGrid(context.Background(), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, want := res.Rows.(GridRows), direct.Rows.(GridRows)
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows diverged:\n got: %+v\nwant: %+v", rows, want)
	}
	var gotCSV, wantCSV, gotJSON, wantJSON bytes.Buffer
	if err := res.RenderCSV(&gotCSV); err != nil {
		t.Fatal(err)
	}
	if err := direct.RenderCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if gotCSV.String() != wantCSV.String() {
		t.Errorf("grid CSV diverged")
	}
	if err := res.RenderJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := direct.RenderJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if gotJSON.String() != wantJSON.String() {
		t.Errorf("grid JSON diverged")
	}
	var gotText, wantText bytes.Buffer
	if err := res.RenderText(&gotText); err != nil {
		t.Fatal(err)
	}
	if err := scenario.TableFromRows(want.Grid, want.Cells).Render(&wantText); err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, row := range want.Cells {
		if row.Status == "skip" {
			skipped++
		}
	}
	n := len(want.Cells)
	wantText.WriteString(fmt.Sprintf("\n%d cells: %d ok, %d skipped\n", n, n-skipped, skipped))
	if gotText.String() != wantText.String() {
		t.Errorf("grid text (table plus footer) diverged:\n got: %q\nwant: %q", gotText.String(), wantText.String())
	}
}

// TestRegistrySmoke runs every non-grid registry experiment once at a
// small scale on one shared engine (fig3/fig4/window-analysis share a
// single traced simulation through its cache) and checks each result
// renders in all three formats.
func TestRegistrySmoke(t *testing.T) {
	en := NewEngine(0)
	p := Params{Iterations: 1, WindowIterations: 2, LatenciesMS: []float64{0}, GPUs: 1024}
	for _, name := range []string{"table1", "table2", "table3", "eq1", "fig3", "fig4",
		"window-analysis", "fig7", "fig8", "bom"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("%q not registered", name)
			}
			res, err := e.Run(context.Background(), en, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Experiment != name {
				t.Errorf("result experiment = %q", res.Experiment)
			}
			var text, csv, rows bytes.Buffer
			if err := res.RenderText(&text); err != nil {
				t.Fatal(err)
			}
			if err := res.RenderCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if err := res.RenderJSON(&rows); err != nil {
				t.Fatal(err)
			}
			if text.Len() == 0 || csv.Len() == 0 || rows.Len() == 0 {
				t.Errorf("empty rendering: text=%d csv=%d rows=%d", text.Len(), csv.Len(), rows.Len())
			}
		})
	}
	if IsGridExperiment("table1") || !IsGridExperiment("grid") || !IsGridExperiment("fig8-5d") {
		t.Error("IsGridExperiment misclassifies")
	}
	if SpecOfGrid(Fig8Grid5D()).Name != "fig8-5d" {
		t.Error("SpecOfGrid dropped the name")
	}
	if len(PaperLatenciesMS()) == 0 || NewCDF([]float64{1, 2}).N() != 2 {
		t.Error("helper re-exports broken")
	}
}

// TestBuiltinGridExperimentHonorsSpecOverride pins the -exp fig8-5d
// -latencies … behavior: a spec passed to a built-in grid experiment
// overrides its registered axes instead of being silently ignored.
func TestBuiltinGridExperimentHonorsSpecOverride(t *testing.T) {
	en := NewEngine(2)
	e, ok := Lookup("fig8-5d")
	if !ok {
		t.Fatal("fig8-5d not registered")
	}
	spec := SpecOfGrid(Fig8Grid5D())
	spec.Models = []string{"Llama3-8B"}
	spec.Fabrics = []string{"electrical"}
	spec.LatenciesMS = nil
	spec.Parallelisms = spec.Parallelisms[:1]
	spec.Iterations = 1
	res, err := e.Run(context.Background(), en, Params{Grid: &spec})
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows.(GridRows)
	if len(rows.Cells) != 1 {
		t.Fatalf("overridden grid expanded to %d cells, want 1", len(rows.Cells))
	}
	if rows.Cells[0].Fabric != "electrical" {
		t.Fatalf("cell fabric = %q, want the override", rows.Cells[0].Fabric)
	}
}
