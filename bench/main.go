// Command bench is photonrail's layered request benchmark. It starts
// the real serving stack inside its own process on loopback TCP — raild
// (railserve.NewServer with cmd/raild's defaults), railfleet over two
// such backends, the railgate gateway served by net/http and, for
// tenant-mix, the result store — and drives it with generated requests
// from the same process; a closed loop uses one connection.
//
// Each workload runs a set-up (start a stack, serve its first cold
// fig8-5d), a warm-up and at least nine measured rounds. Throughput and
// CPU are medians over the rounds; latency quantiles pool every round's
// samples. The end-to-end timings are reported at a reference host
// speed, timed with a fixed kernel around every round (calibrate.go),
// and as measured. Every response is verified; any mismatch fails the
// run.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                                   # every workload
//	bash bench/run.sh --workload fig8-warm --seed 3     # one workload
//	bash bench/run.sh --workload cold-sweep --trace 1   # per-layer metrics + trace.json
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics BENCHMARK.json declares (the
// end-to-end ones, or with --trace 1 the per-layer ones). See
// bench/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var (
		wname   = fs.String("workload", "all", "workload: "+strings.Join(names, ", ")+", or all")
		seed    = fs.Int64("seed", 1, "seed every generated input derives from")
		seconds = fs.Float64("seconds", 15, "about how long the measured rounds of one workload take")
		trace   = fs.Int("trace", 0, "1: trace alternate rounds, report per-layer metrics and write trace.json")
		out     = fs.String("out", ".bench_build/out", "directory trace.json is written under, one subdirectory per workload")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: want flags only, -seconds > 0 and -trace 0 or 1\n")
		return 2
	}
	selected := workloads
	if *wname != "all" {
		w, ok := workloadByName(*wname)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *wname, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratchParent := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(scratchParent, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchParent, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	fig8, err := loadGolden(context.Background(), root)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	code := 0
	cal := newCalibrator()
	for _, w := range selected {
		cfg := config{
			seed: *seed, seconds: *seconds, trace: *trace == 1,
			fig8: fig8, scratch: scratch, out: filepath.Join(*out, w.name),
			setups: 9, cal: cal,
		}
		// A stuck request fails the run instead of hanging it.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute+time.Duration(2**seconds*float64(time.Second)))
		res, err := run(ctx, w, cfg)
		cancel()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		ok, err := res.report(stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// repoRoot finds the photonrail checkout: the working directory, or its
// parent when run from bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, goldenPath)); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the photonrail repository root (no %s here)", goldenPath)
}
