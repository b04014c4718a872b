// Command railclient runs experiments against a raild daemon. Grid
// sweeps accept the same dimension flags and produce byte-identical
// output to cmd/railgrid — the difference is where the cells simulate:
// railgrid runs them in-process and forgets its cache on exit, while
// railclient shares a daemon whose cache stays warm across invocations
// and whose request-level deduplication coalesces identical concurrent
// requests from any number of clients.
//
// With -exp, railclient runs any experiment in the photonrail registry
// remotely (fig8, fig4, table1-3, window-analysis, bom, grids, …);
// without it, the dimension flags run as `-exp grid`. Either way the
// bytes match the local CLI twin exactly: the daemon renders the
// result server-side, and a grid's table or CSV is derived here from
// the JSON rows it ships. -timeout bounds the wait client- and
// server-side (the daemon honors it as a per-request deadline), and a
// cancelled wait sends a protocol cancel frame so the daemon stops
// only this request's wait.
//
// Usage:
//
//	railclient -addr 127.0.0.1:9090 -grid fig8-5d
//	railclient -fabrics electrical,photonic -latencies 1,10 -format csv
//	railclient -exp fig8 -timeout 60s       # any registry experiment
//	railclient -daemon-stats                # print serving telemetry only
//
// Parallelism coordinates are TP:DP:PP[:CP[:EP]], as in railgrid.
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
	"time"

	"photonrail"
	"photonrail/internal/gridcli"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
)

func main() {
	// Ctrl-C and SIGTERM cancel the run through the same context the
	// -timeout flag bounds; a second signal kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "railclient: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("railclient", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dims := gridcli.Register(fs)
	var (
		addr      = fs.String("addr", "127.0.0.1:9090", "raild daemon address")
		list      = fs.Bool("list", false, "list built-in grids and presets, then exit")
		format    = fs.String("format", "table", "output format: table, csv, or json")
		progress  = fs.Bool("progress", false, "print per-cell progress to stderr as the daemon streams it")
		stats     = fs.Bool("stats", false, "print daemon serving stats to stderr after the run")
		statsOnly = fs.Bool("daemon-stats", false, "print daemon serving stats and exit (no sweep)")
		expName   = fs.String("exp", "grid", "registry experiment to run remotely (grid: the sweep the dimension flags describe)")
		timeout   = fs.Duration("timeout", 0, "deadline for the request, enforced client- and server-side (0 = none)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: railclient [flags]\nparallelism coordinates are TP:DP:PP[:CP[:EP]]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (railclient takes flags only)", fs.Args())
	}
	if *list {
		gridcli.PrintCatalog(stdout)
		fmt.Fprintf(stdout, "experiments (-exp):\n")
		return photonrail.DescribeExperiments(stdout)
	}
	if err := gridcli.CheckFormat(*format); err != nil {
		return err
	}

	printStats := func(c *railserve.Client, w io.Writer) error {
		st, err := c.Stats()
		if err != nil {
			return err
		}
		if _, err = fmt.Fprintf(w, "daemon: cache %d hits / %d misses / %d evictions, %d in flight; exps %d executed / %d deduped\n",
			st.Hits, st.Misses, st.Evictions, st.InFlight, st.ExpsExecuted, st.ExpsDeduped); err != nil {
			return err
		}
		if _, err = fmt.Fprintf(w, "stages: build %d/%d, provision %d/%d (seeds %d/%d), time %d/%d (hits/misses)\n",
			st.BuildHits, st.BuildMisses,
			st.ProvisionHits, st.ProvisionMisses, st.SeedHits, st.SeedMisses,
			st.TimeHits, st.TimeMisses); err != nil {
			return err
		}
		// A fleet coordinator's stats carry the per-backend membership
		// view; a plain daemon's carry no backends and print nothing
		// extra.
		if len(st.Backends) > 0 {
			if _, err = fmt.Fprintf(w, "fleet: %d members\n", len(st.Backends)); err != nil {
				return err
			}
			for _, b := range st.Backends {
				if err = printMember(w, b); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if *statsOnly {
		c, err := railserve.Dial(*addr)
		if err != nil {
			return err
		}
		defer c.Close()
		return printStats(c, stdout)
	}

	ctx, cancel := gridcli.WithTimeout(ctx, *timeout)
	defer cancel()

	var onProgress func(done, total int)
	if *progress {
		onProgress = func(done, total int) { fmt.Fprintf(stderr, "railclient: %d/%d cells\n", done, total) }
	}

	req := opusnet.ExpRequestPayload{Name: *expName, TimeoutMS: timeout.Milliseconds()}
	if photonrail.IsGridExperiment(*expName) {
		// Grid experiments take railgrid's dimension flags; a built-in
		// grid name seeds the axes the flags overlay, so
		// `-exp fig8-5d -latencies 99` behaves like
		// `-grid fig8-5d -latencies 99`.
		if *expName != "grid" {
			dims.DefaultGridName(*expName)
		}
		spec, _, err := dims.Spec()
		if err != nil {
			return err
		}
		req.Grid = &spec
	} else {
		// Non-grid experiments honor the sweep-shaped flags, so a remote
		// run matches its local railsweep twin.
		p, err := dims.SweepParams()
		if err != nil {
			return err
		}
		req.Iterations = p.Iterations
		req.LatenciesMS = p.LatenciesMS
	}
	c, err := railserve.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	run, err := c.RunExperiment(ctx, req, onProgress)
	if err != nil {
		return err
	}
	if run.Shared {
		fmt.Fprintf(stderr, "railclient: joined an identical in-flight request\n")
	}
	out, err := run.Render(*format)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(stdout, out); err != nil {
		return err
	}
	if *stats {
		return printStats(c, stderr)
	}
	return nil
}

// printMember renders one fleet member's membership line: identity,
// kind, state, capacity, execution counters, and — for heartbeat-kept
// dynamic members — the age of the newest heartbeat.
func printMember(w io.Writer, b opusnet.BackendStatsPayload) error {
	id := b.ID
	if id == "" {
		id = b.Addr
	}
	kind := "dynamic"
	if b.Static {
		kind = "static"
	}
	state := b.State
	if state == "" {
		if b.Healthy {
			state = "healthy"
		} else {
			state = "unknown"
		}
	}
	line := fmt.Sprintf("  %s (%s): %s %s, capacity %d, cells %d, failures %d",
		id, b.Addr, kind, state, b.Capacity, b.Cells, b.Failures)
	if !b.Static {
		line += fmt.Sprintf(", heartbeat %s ago", (time.Duration(b.LastHeartbeatAgeMS) * time.Millisecond).Round(time.Millisecond))
	}
	_, err := fmt.Fprintln(w, line)
	return err
}
