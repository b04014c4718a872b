// Command railgrid sweeps scenario grids — the cross-product of model,
// GPU, fabric kind, reconfiguration latency, {TP,DP,PP,CP,EP}
// parallelism, pipeline schedule, jitter, and ReduceScatter eagerness —
// on the concurrent memoizing engine. Infeasible cells (e.g. static
// partitions violating constraint C2, or expert parallelism on a dense
// model) are reported as skips with reasons. Parallel output is
// byte-identical to -parallel=1.
//
// Usage:
//
//	railgrid -grid fig8-5d                            # built-in grid
//	railgrid -fabrics electrical,photonic,provisioned \
//	         -latencies 1,10,100 -par 4:2:2,4:1:2:2   # from flags
//	railgrid -grid fig8-5d -format csv -stats
//	railgrid -models Mixtral-8x7B -par 4:1:2:1:2 -format json
//
// Parallelism coordinates are TP:DP:PP[:CP[:EP]]. The dimension flags
// and output formats are shared with cmd/railclient, which runs the
// same sweeps against a raild daemon instead of in-process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"photonrail"
	"photonrail/internal/gridcli"
)

func main() {
	// Ctrl-C and SIGTERM cancel the run through the same context the
	// -timeout flag bounds; a second signal kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "railgrid: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("railgrid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dims := gridcli.Register(fs)
	var (
		list     = fs.Bool("list", false, "list built-in grids and presets, then exit")
		parallel = fs.Int("parallel", 0, "worker count (0 = NumCPU)")
		format   = fs.String("format", "table", "output format: table, csv, or json")
		stats    = fs.Bool("stats", false, "print engine cache stats to stderr")
		progress = fs.Bool("progress", false, "print per-cell progress to stderr")
		timeout  = fs.Duration("timeout", 0, "overall deadline for the sweep (0 = none)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: railgrid [flags]\nparallelism coordinates are TP:DP:PP[:CP[:EP]]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (railgrid takes flags only)", fs.Args())
	}
	if *list {
		gridcli.PrintCatalog(stdout)
		return nil
	}
	if err := gridcli.CheckFormat(*format); err != nil {
		return err
	}
	spec, _, err := dims.Spec()
	if err != nil {
		return err
	}

	var onCell func(done, total int)
	if *progress {
		onCell = func(done, total int) { fmt.Fprintf(stderr, "railgrid: %d/%d cells\n", done, total) }
	}
	ctx, cancel := gridcli.WithTimeout(ctx, *timeout)
	defer cancel()
	en := photonrail.NewEngine(*parallel)
	// The validated spec feeds the registry's generic grid experiment:
	// railgrid is flag parsing + Lookup("grid").Run + rendering.
	e, _ := photonrail.Lookup("grid")
	res, err := e.Run(ctx, en, photonrail.Params{Grid: &spec, OnProgress: onCell})
	if err != nil {
		return err
	}
	if err := renderResult(stdout, *format, res); err != nil {
		return err
	}
	if *stats {
		st := en.CacheStats()
		fmt.Fprintf(stderr, "engine: %d workers, cache %d hits / %d misses / %d evictions\n",
			en.Workers(), st.Hits, st.Misses, st.Evictions)
		fmt.Fprintf(stderr, "stages: build %d/%d, provision %d/%d (seeds %d/%d), time %d/%d (hits/misses)\n",
			st.Build.Hits, st.Build.Misses,
			st.Provision.Hits, st.Provision.Misses, st.SeedHits, st.SeedMisses,
			st.Time.Hits, st.Time.Misses)
	}
	return nil
}

// renderResult writes the experiment result in the chosen format; the
// bytes are identical to the exp_result renderings a raild daemon
// ships for the same grid.
func renderResult(w io.Writer, format string, res *photonrail.ExperimentResult) error {
	switch format {
	case "table":
		return res.RenderText(w)
	case "csv":
		return res.RenderCSV(w)
	case "json":
		return res.RenderJSON(w)
	}
	return gridcli.CheckFormat(format)
}
