package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"photonrail/internal/goldentest"
)

// smallGrid is the canonical small grid the small.* corpus pins (also
// served through a fleet by cmd/railfleet's golden test).
var smallGrid = []string{
	"-models", "Llama3-8B", "-par", "4:2:2",
	"-fabrics", "electrical,photonic,static", "-latencies", "5", "-iters", "1",
}

// smallGridExp names the grid experiment explicitly, which must hit
// the same small.* corpus byte for byte.
var smallGridExp = append([]string{"-exp", "grid", "-timeout", "5m"}, smallGrid...)

// goldenCases are the canonical invocations the corpus pins, each
// against its file under testdata/golden. A case's subtest is named by
// its file unless name says otherwise.
var goldenCases = []struct {
	name string
	file string
	args []string
}{
	{"table", "small.table", append([]string{"-format", "table"}, smallGrid...)},
	{"csv", "small.csv", append([]string{"-format", "csv"}, smallGrid...)},
	{"json", "small.json", append([]string{"-format", "json"}, smallGrid...)},
	{"exp-table", "small.table", append([]string{"-format", "table"}, smallGridExp...)},
	{"exp-csv", "small.csv", append([]string{"-format", "csv"}, smallGridExp...)},
	{"exp-json", "small.json", append([]string{"-format", "json"}, smallGridExp...)},
	{"", "tables.table", []string{"-exp", "table1,table2,table3"}},
	{"", "fig7.table", []string{"-exp", "fig7"}},
	{"", "fig7.json", []string{"-exp", "fig7", "-format", "json"}},
	{"", "fig8.table", []string{"-exp", "fig8", "-latencies", "0,10", "-iters", "1"}},
	{"", "fig8.json", []string{"-exp", "fig8", "-latencies", "0,10", "-iters", "1", "-format", "json"}},
	{"", "fig4.table", []string{"-exp", "fig4", "-window-iters", "2"}},
	{"", "fig4.json", []string{"-exp", "fig4", "-window-iters", "2", "-format", "json"}},
	{"", "table3_fig7.table", []string{"-exp", "table3,fig7"}},
	{"", "table3_fig7.csv", []string{"-exp", "table3,fig7", "-format", "csv"}},
	{"", "bom_1024.table", []string{"-exp", "bom", "-cluster-gpus", "1024"}},
	{"", "eq1_tables.table", []string{"-exp", "table1,table2,eq1"}},
	{"", "table1.csv", []string{"-exp", "table1", "-format", "csv"}},
	{"", "fig34_2iter.table", []string{"-exp", "fig3,window-analysis", "-window-iters", "2"}},
	{"", "table1_table3_fig7.json", []string{"-exp", "table1,table3,fig7", "-format", "json"}},
}

// checkGolden runs every golden case with pathFlags prepended and
// compares its output against the case's file.
func checkGolden(t *testing.T, pathFlags []string) {
	for _, tc := range goldenCases {
		name := tc.name
		if name == "" {
			name = tc.file
		}
		t.Run(name, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append(append([]string{}, pathFlags...), tc.args...)
			if err := run(testContext(t), args, &out, &errb); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			goldentest.Check(t, out.Bytes(), filepath.Join("testdata", "golden", tc.file))
		})
	}
}

// TestGolden pins every canonical invocation byte for byte on the
// in-process path. The simulator is deterministic, so any diff is a
// real output change. Regenerate intentionally with
// `go test ./cmd/railclient -run Golden -update`.
func TestGolden(t *testing.T) { checkGolden(t, nil) }

// TestGoldenLoopback runs the same cases through an in-process raild
// against the same files, so a remote run renders exactly like a local
// one. CI runs it with TestGolden as its golden step.
func TestGoldenLoopback(t *testing.T) { checkGolden(t, []string{"-addr", startDaemon(t)}) }
