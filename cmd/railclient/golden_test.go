package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"photonrail/internal/goldentest"
)

// TestGoldenLoopback pins the full daemon loopback path byte for byte:
// railclient submits cmd/railgrid's canonical small grid to an
// in-process raild server and every output format must match this
// corpus — which is itself byte-identical to railgrid's, proving a
// remote sweep renders exactly like a local one. CI runs this test as
// its daemon-loopback golden step. Regenerate intentionally with
// `go test ./cmd/railclient -run Golden -update`.
func TestGoldenLoopback(t *testing.T) {
	addr := startDaemon(t)
	base := []string{
		"-addr", addr,
		"-models", "Llama3-8B", "-par", "4:2:2",
		"-fabrics", "electrical,photonic,static", "-latencies", "5", "-iters", "1",
	}
	for _, format := range []string{"table", "csv", "json"} {
		format := format
		t.Run(format, func(t *testing.T) {
			var out, errb bytes.Buffer
			if err := run(t.Context(), append(base, "-format", format), &out, &errb); err != nil {
				t.Fatal(err)
			}
			goldentest.Check(t, out.Bytes(), filepath.Join("testdata", "golden", "small."+format))
		})
		// Naming the grid experiment explicitly must hit the same corpus
		// byte for byte.
		t.Run("exp-"+format, func(t *testing.T) {
			var out, errb bytes.Buffer
			args := append(append([]string{}, base...), "-exp", "grid", "-timeout", "5m", "-format", format)
			if err := run(t.Context(), args, &out, &errb); err != nil {
				t.Fatal(err)
			}
			goldentest.Check(t, out.Bytes(), filepath.Join("testdata", "golden", "small."+format))
		})
	}
}
