// Command railclient runs experiments from the photonrail registry —
// the paper's tables and figures (table1-3, eq1, fig3, fig4, fig7,
// fig8, window-analysis, bom) and scenario grids (the "grid"
// experiment, or a built-in grid by name) — in-process, or against a
// raild daemon or railfleet coordinator.
//
// Without -addr it runs on an in-process engine that lives for one
// invocation (-parallel sizes it). With -addr it sends the same
// requests to a daemon, whose cache stays warm across invocations and
// whose request-level deduplication coalesces identical concurrent
// requests from any number of clients. Both paths build the same
// exp_req payload and print through railserve.ExpRun.Render, so their
// output is byte-identical.
//
// -exp takes a comma-separated list, or all (table1, table2, table3,
// fig7, fig4, fig8), run in order on one engine or over one
// connection. Table and CSV output concatenate; with more than one
// experiment, -format json prints one object keyed by experiment name.
// Grid experiments take the dimension flags, and a built-in grid name
// seeds the axes the flags overlay for its own request. -timeout bounds
// the whole invocation, client- and server-side (the daemon honors it
// as a per-request deadline), and a cancelled wait sends a protocol
// cancel frame so the daemon stops only this request's wait.
//
// Usage:
//
//	railclient -exp all                           # every table and figure batch
//	railclient -grid fig8-5d -parallel 8 -stats   # a built-in grid
//	railclient -fabrics electrical,photonic -latencies 1,10 -format csv
//	railclient -exp fig8 -latencies 0,10,100 -format json
//	railclient -exp bom -cluster-gpus 1024
//	railclient -addr 127.0.0.1:9090 -exp fig8 -timeout 60s
//	railclient -addr 127.0.0.1:9090 -daemon-stats   # serving telemetry only
//
// Parallelism coordinates are TP:DP:PP[:CP[:EP]].
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/report"
)

func main() {
	// Ctrl-C and SIGTERM cancel the run through the same context the
	// -timeout flag bounds. The first signal also stops the relay, so a
	// second one takes the default action and kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "railclient: %v\n", err)
		os.Exit(1)
	}
}

// sweepBatch is what -exp all runs, cheap tables first.
var sweepBatch = []string{"table1", "table2", "table3", "fig7", "fig4", "fig8"}

// runFunc runs one experiment request to completion: on the in-process
// engine (runLocal) or over a daemon connection (Client.RunExperiment).
type runFunc func(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error)

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("railclient", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dims := registerDims(fs)
	var (
		addr        = fs.String("addr", "", "raild or railfleet address (empty = run in-process)")
		list        = fs.Bool("list", false, "list built-in grids, presets and experiments, then exit")
		format      = fs.String("format", "table", "output format: table, csv, or json")
		progress    = fs.Bool("progress", false, "print progress to stderr: every cell in-process; with -addr at most one tick per 50 ms, none for a faster run")
		stats       = fs.Bool("stats", false, "print engine (or, with -addr, daemon) stats to stderr after the run")
		statsOnly   = fs.Bool("daemon-stats", false, "print the -addr daemon's serving stats and exit (no run)")
		expNames    = fs.String("exp", "grid", "comma-separated registry experiments, or all (grid: the sweep the dimension flags describe)")
		timeout     = fs.Duration("timeout", 0, "deadline for the invocation, enforced client- and server-side (0 = none)")
		parallel    = fs.Int("parallel", 0, "in-process engine worker count (0 = NumCPU; not with -addr)")
		winIters    = fs.Int("window-iters", 0, "iterations traced for fig3, fig4 and window-analysis (0 = 10)")
		rail        = fs.Int("rail", 0, "rail whose fig3 timeline is rendered")
		clusterGPUs = fs.Int("cluster-gpus", 0, "cluster size the bom experiment prices (0 = 8192)")
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
		printCatalog(stdout)
		fmt.Fprintf(stdout, "experiments (-exp, or all: %s):\n", strings.Join(sweepBatch, ","))
		return photonrail.DescribeExperiments(stdout)
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"parallel", *parallel}, {"window-iters", *winIters}, {"rail", *rail}, {"cluster-gpus", *clusterGPUs}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative, got %d", f.name, f.v)
		}
	}
	if *addr == "" && *statsOnly {
		return errors.New("-daemon-stats needs a daemon: pass -addr host:port")
	}
	if *addr != "" && *parallel != 0 {
		return errors.New("-parallel sizes the in-process engine; a daemon sizes its own (drop -parallel or -addr)")
	}

	ctx, cancel := withTimeout(ctx, *timeout)
	defer cancel()

	if *statsOnly {
		c, err := railserve.Dial(*addr)
		if err != nil {
			return err
		}
		defer c.Close()
		return printDaemonStats(ctx, c, stdout)
	}

	reqs, err := buildRequests(*expNames, dims, opusnet.ExpRequestPayload{
		TimeoutMS:        timeout.Milliseconds(),
		WindowIterations: *winIters,
		Rail:             *rail,
		GPUs:             *clusterGPUs,
	})
	if err != nil {
		return err
	}

	var (
		runExp     runFunc
		printStats func() error
	)
	if *addr == "" {
		en := photonrail.NewEngine(*parallel)
		runExp = func(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error) {
			return runLocal(ctx, en, req, onProgress)
		}
		printStats = func() error { return printEngineStats(stderr, en) }
	} else {
		c, err := railserve.Dial(*addr)
		if err != nil {
			return err
		}
		defer c.Close()
		runExp = c.RunExperiment
		printStats = func() error { return printDaemonStats(ctx, c, stderr) }
	}

	var onProgress func(done, total int)
	if *progress {
		onProgress = func(done, total int) { fmt.Fprintf(stderr, "railclient: %d/%d cells\n", done, total) }
	}
	// One experiment prints its rendering bare; several in JSON print
	// one object of their rows, keyed by experiment name.
	multiJSON := len(reqs) > 1 && *format == "json"
	rows := make(map[string]json.RawMessage, len(reqs))
	for _, req := range reqs {
		r, err := runExp(ctx, req, onProgress)
		if err != nil {
			return fmt.Errorf("%s: %w", req.Name, err)
		}
		if r.Shared {
			fmt.Fprintf(stderr, "railclient: joined an identical in-flight request\n")
		}
		if multiJSON {
			rows[req.Name] = json.RawMessage(r.RowsJSON)
			continue
		}
		out, err := r.Render(*format)
		if err != nil {
			return err
		}
		if _, err := io.WriteString(stdout, out); err != nil {
			return err
		}
	}
	if multiJSON {
		if err := report.JSON(stdout, rows); err != nil {
			return err
		}
	}
	if *stats {
		return printStats()
	}
	return nil
}

// buildRequests turns the -exp list into one exp_req per experiment,
// in order, with "all" expanded to sweepBatch. A grid experiment
// carries the spec the dimension flags describe, seeded by its own
// built-in grid's axes; every other experiment carries base's params
// plus the sweep-shaped -latencies and -iters. A numeric flag left at
// 0 means the registry default, so each payload — and the
// photonrail.ExperimentKey a daemon coalesces and stores it under — is
// exactly what the flags ask for.
func buildRequests(list string, dims *dimensions, base opusnet.ExpRequestPayload) ([]opusnet.ExpRequestPayload, error) {
	var names []string
	for _, name := range splitList(list) {
		if name == "all" {
			names = append(names, sweepBatch...)
			continue
		}
		if _, ok := photonrail.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown experiment %q (want %s, all)", name, strings.Join(photonrail.ExperimentNames(), ", "))
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, errors.New("-exp names no experiment")
	}
	reqs := make([]opusnet.ExpRequestPayload, len(names))
	for i, name := range names {
		if !photonrail.IsGridExperiment(name) {
			p, err := dims.sweepParams()
			if err != nil {
				return nil, err
			}
			reqs[i] = base
			reqs[i].Name = name
			reqs[i].Iterations, reqs[i].LatenciesMS = p.Iterations, p.LatenciesMS
			continue
		}
		builtin := name
		if name == "grid" {
			builtin = ""
		}
		spec, err := dims.spec(builtin)
		if err != nil {
			return nil, err
		}
		reqs[i] = opusnet.ExpRequestPayload{Name: name, Grid: &spec, TimeoutMS: base.TimeoutMS}
	}
	return reqs, nil
}

// runLocal is a daemon's execute step without its serving core: the
// registry run on this invocation's engine, rendered into the payload
// a daemon would ship. It applies no request-size bounds — those exist
// for the wire's frame limit, and a local grid may be as large as the
// machine allows.
func runLocal(ctx context.Context, en *photonrail.Engine, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error) {
	e, _ := photonrail.Lookup(req.Name) // buildRequests checked the name
	p := railserve.ExpParams(req)
	p.OnProgress = onProgress
	res, err := e.Run(ctx, en, p)
	if err != nil {
		return nil, err
	}
	payload, err := railserve.RenderExpPayload(req.Name, res)
	if err != nil {
		return nil, err
	}
	return railserve.NewExpRun(payload), nil
}

// printEngineStats writes the in-process engine's worker count and
// cache telemetry; the misses count is how many distinct simulations
// actually ran.
func printEngineStats(w io.Writer, en *photonrail.Engine) error {
	st := en.CacheStats()
	if _, err := fmt.Fprintf(w, "engine: %d workers, cache %d hits / %d misses / %d evictions\n",
		en.Workers(), st.Hits, st.Misses, st.Evictions); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "stages: build %d/%d, provision %d/%d (seeds %d/%d), time %d/%d (hits/misses)\n",
		st.Build.Hits, st.Build.Misses,
		st.Provision.Hits, st.Provision.Misses, st.SeedHits, st.SeedMisses,
		st.Time.Hits, st.Time.Misses)
	return err
}

// printDaemonStats fetches and writes the daemon's serving telemetry,
// bounded by ctx (so by -timeout and Ctrl-C).
func printDaemonStats(ctx context.Context, c *railserve.Client, w io.Writer) error {
	st, err := c.StatsCtx(ctx)
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
	// view; a plain daemon's carry no backends and print nothing extra.
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
