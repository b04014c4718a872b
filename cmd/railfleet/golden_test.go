package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"photonrail/internal/goldentest"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
)

// goldenFormats are the output formats the corpora pin, in file order.
var goldenFormats = []string{"table", "csv", "json"}

// runGrid serves spec through the fleet as a grid experiment and
// returns the bytes each output format prints, by format name, as a
// client renders them (railserve.ExpRun.Render).
func runGrid(t *testing.T, c *railserve.Client, spec scenario.Spec) map[string]string {
	t.Helper()
	run, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(goldenFormats))
	for _, format := range goldenFormats {
		if out[format], err = run.Render(format); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// startGoldenFleet brings up three raild backends and a railfleet
// coordinator — through run(), so the CLI wiring is what's under test
// — and returns the coordinator's dial address.
func startGoldenFleet(t *testing.T) string {
	t.Helper()
	var addrs []string
	for i := 0; i < 3; i++ {
		s, err := railserve.NewServer(railserve.Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close(); s.Drain() })
		addrs = append(addrs, s.Addr())
	}
	stop := make(chan os.Signal, 1)
	var out, errb syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-backends", strings.Join(addrs, ",")}, &out, &errb, stop)
	}()
	t.Cleanup(func() {
		stop <- os.Interrupt
		if err := <-done; err != nil {
			t.Errorf("coordinator shutdown: %v", err)
		}
	})
	listenRE := regexp.MustCompile(`listening on (\S+),`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never reported listening; stderr: %s", errb.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGoldenFleet pins the fleet path byte for byte: the full 48-cell
// fig8-5d grid served by a 3-backend fleet must render exactly the
// committed corpus in every output format, and the canonical small
// grid must match cmd/railgrid's own golden files — the same bytes a
// single-process run produces, proving the fan-out is invisible in the
// output. CI runs this test in its loopback golden step. Regenerate
// the fig8-5d corpus intentionally with
// `go test ./cmd/railfleet -run Golden -update` (railgrid's files are
// never written from here).
func TestGoldenFleet(t *testing.T) {
	addr := startGoldenFleet(t)
	c, err := railserve.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })

	t.Run("fig8-5d", func(t *testing.T) {
		out := runGrid(t, c, scenario.SpecOf(scenario.Fig8Grid5D()))
		for _, format := range goldenFormats {
			goldentest.Check(t, []byte(out[format]), filepath.Join("testdata", "golden", "fig8-5d."+format))
		}
	})

	// The exact grid railgrid's golden corpus pins, through the fleet:
	// the bytes must equal railgrid's committed files, not a corpus of
	// our own.
	t.Run("railgrid-corpus", func(t *testing.T) {
		spec := scenario.Spec{
			Name:         "custom",
			Models:       []string{"Llama3-8B"},
			Parallelisms: []scenario.Parallelism{{TP: 4, DP: 2, PP: 2}},
			Fabrics:      []string{"electrical", "photonic", "static"},
			LatenciesMS:  []float64{5},
			Iterations:   1,
		}
		out := runGrid(t, c, spec)
		for _, format := range goldenFormats {
			want, err := os.ReadFile(filepath.Join("..", "railgrid", "testdata", "golden", "small."+format))
			if err != nil {
				t.Fatal(err)
			}
			if out[format] != string(want) {
				t.Errorf("%s output diverged from railgrid's golden corpus", format)
			}
		}
	})
}
