package photonrail

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"photonrail/internal/report"
	"photonrail/internal/scenario"
)

// TestAppendGridJSONMatchesReportJSON: joining rendered rows is byte
// for byte report.JSON over the same GridRows, for an empty grid and a
// name that JSON escapes.
func TestAppendGridJSONMatchesReportJSON(t *testing.T) {
	rows := []scenario.Row{
		{Cell: "a/<b>&c", Model: "m", Status: "ok", Slowdown: 1.25, LatencyMS: 1e-7, BlockedSeconds: 3e21},
		{Cell: "d", Status: "skip", SkipReason: "C2 \"static\"\n"},
	}
	for _, tc := range []struct {
		name string
		rows []scenario.Row
	}{
		{"fig8-5d", rows},
		{"<esc\"aped>\u2028", rows[:1]},
		{"empty", []scenario.Row{}},
	} {
		var want bytes.Buffer
		if err := report.JSON(&want, GridRows{Grid: tc.name, Cells: tc.rows}); err != nil {
			t.Fatal(err)
		}
		js := make([][]byte, len(tc.rows))
		for i, row := range tc.rows {
			var err error
			if js[i], err = GridRowJSON(row); err != nil {
				t.Fatal(err)
			}
		}
		if got := AppendGridJSON(nil, tc.name, js); string(got) != want.String() {
			t.Errorf("%s: joined rows =\n%s\nwant\n%s", tc.name, got, want.String())
		}
	}
}

// rowCacheSpecs draws grids from the scenario grammar whose workloads
// overlap: every spec picks its axes from one small pool, under its own
// name, and static and EP cells make some of them skip.
func rowCacheSpecs(rng *rand.Rand, n int) []scenario.Spec {
	pick := func(pool []string) []string {
		k := 1 + rng.Intn(len(pool))
		var out []string
		for _, i := range rng.Perm(len(pool))[:k] {
			out = append(out, pool[i])
		}
		return out
	}
	pars := []scenario.Parallelism{{TP: 4, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2}, {TP: 4, DP: 1, EP: 2, PP: 2}}
	specs := make([]scenario.Spec, n)
	for i := range specs {
		var chosen []scenario.Parallelism
		for _, j := range rng.Perm(len(pars))[:1+rng.Intn(len(pars))] {
			chosen = append(chosen, pars[j])
		}
		specs[i] = scenario.Spec{
			Name:           fmt.Sprintf("gen-%d", i),
			Models:         pick([]string{"Llama3-8B", "Mixtral-8x7B"}),
			Fabrics:        pick([]string{"electrical", "photonic", "provisioned", "static"}),
			LatenciesMS:    []float64{1, 5, 10}[:1+rng.Intn(3)],
			Parallelisms:   chosen,
			Schedules:      pick([]string{"1F1B", "GPipe"}),
			JitterFracs:    []float64{0, 0.05}[:1+rng.Intn(2)],
			Microbatches:   4,
			MicrobatchSize: 1,
			Iterations:     1,
		}
	}
	return specs
}

// TestGridRowCacheMatchesFreshEngine is the generated check of the row
// cache: a row is rendered once and reused by every later cell that
// hits the same memo entry, which is right only if every field of the
// row is a function of that entry's key. Seeded grids that share
// workloads under different names, some with skipped cells, run
// concurrently and in shuffled order, twice each, through one shared
// engine; each grid's JSON must equal report.JSON over the rows of the
// same grid run alone on a fresh engine.
func TestGridRowCacheMatchesFreshEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(0x20C0DE))
	n := 8
	if testing.Short() {
		n = 5
	}
	specs := rowCacheSpecs(rng, n)
	want := make([]string, len(specs))
	skipped := 0
	for i, spec := range specs {
		g, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(1).RunGrid(context.Background(), g, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Rows.(GridRows).Cells
		for _, row := range rows {
			if row.Status == "skip" {
				skipped++
			}
		}
		var b strings.Builder
		if err := report.JSON(&b, GridRows{Grid: g.Name, Cells: rows}); err != nil {
			t.Fatal(err)
		}
		want[i] = b.String()
	}
	if skipped == 0 {
		t.Fatal("no generated grid has a skipped cell; draw again")
	}

	grid, _ := Lookup("grid")
	shared := NewEngine(0)
	order := append(rng.Perm(len(specs)), rng.Perm(len(specs))...)
	var wg sync.WaitGroup
	errs := make([]error, len(order))
	for k, i := range order {
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := specs[i]
			res, err := grid.Run(context.Background(), shared, Params{Grid: &spec})
			if err != nil {
				errs[k] = err
				return
			}
			var b strings.Builder
			if err := res.RenderJSON(&b); err != nil {
				errs[k] = err
				return
			}
			if b.String() != want[i] {
				errs[k] = fmt.Errorf("grid %s diverged from a fresh engine's:\n got: %s\nwant: %s", spec.Name, b.String(), want[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
