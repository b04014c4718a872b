// Command raild is the long-running experiment-serving daemon: it
// listens for scenario-grid and registry-experiment requests on the
// opusnet framed protocol, shards each request's jobs across a shared
// worker pool, keeps the simulation cache warm across requests
// (bounded, so the daemon is safe to run indefinitely), deduplicates
// identical in-flight requests across concurrent clients, streams
// progress back, and honors per-request deadlines and client cancel
// frames (stopping only the requesting client's wait).
//
// With -coordinator the daemon also joins a railfleet coordinator's
// elastic fleet: it registers itself (identity, serving address,
// worker-pool capacity), heartbeats with its serving stats piggybacked,
// and on SIGTERM drains gracefully — it tells the coordinator to stop
// assigning it cells, finishes its in-flight work, and leaves without
// tripping failover. A second signal forces immediate shutdown.
//
// Usage:
//
//	raild                            # listen on 127.0.0.1:9090
//	raild -addr :7070 -parallel 8    # custom address and pool size
//	raild -cache 4096                # cache at most 4096 simulation units
//	raild -metrics-addr :9190        # also serve /metrics and /events over HTTP
//	raild -coordinator 10.0.0.9:9091 -id node-a   # join an elastic fleet
//
// Drive it with cmd/railclient -addr, which takes the dimension flags
// for grid sweeps and -exp for any registered experiment, and prints
// the same bytes it prints running in-process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
)

func main() {
	stop := make(chan os.Signal, 2)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		fmt.Fprintf(os.Stderr, "raild: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon and serves until stop delivers. It is the
// testable core: main wires OS signals in, tests feed the channel
// directly.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("raild", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:9090", "TCP listen address")
		parallel    = fs.Int("parallel", 0, "worker count (0 = NumCPU)")
		cache       = fs.Int64("cache", 4096, "max cached simulation cost in units (0 = unbounded)")
		metrics     = fs.String("metrics-addr", "", "HTTP address for /metrics and /events (empty = disabled)")
		verbose     = fs.Bool("verbose", false, "log each served request to stderr")
		coordinator = fs.String("coordinator", "", "railfleet coordinator to register with (empty = standalone)")
		identity    = fs.String("id", "", "stable fleet identity (default hostname/listen-address); keeps this daemon's shard across restarts")
		advertise   = fs.String("advertise", "", "address the coordinator dials for cells (default the actual listen address)")
		heartbeat   = fs.Duration("heartbeat", railctl.DefaultHeartbeatInterval, "fleet heartbeat interval")
		drainTO     = fs.Duration("drain-timeout", time.Minute, "bound on finishing in-flight work during a graceful drain")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (raild takes flags only)", fs.Args())
	}
	if *cache < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", *cache)
	}
	if *coordinator == "" && (*identity != "" || *advertise != "") {
		return fmt.Errorf("-id/-advertise only make sense with -coordinator")
	}
	if *heartbeat <= 0 {
		return fmt.Errorf("-heartbeat must be > 0, got %v", *heartbeat)
	}
	cfg := railserve.Config{
		Addr:         *addr,
		Workers:      *parallel,
		MaxCacheCost: *cache,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	s, err := railserve.NewServer(cfg)
	if err != nil {
		return err
	}
	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			_ = s.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		hs := &http.Server{Handler: s.Telemetry().Handler()}
		go func() { _ = hs.Serve(ln) }() // Serve returns once hs is closed below
		defer func() { _ = hs.Close() }()
		fmt.Fprintf(stdout, "raild: metrics on http://%s/metrics\n", ln.Addr())
	}
	var agent *railctl.Agent
	if *coordinator != "" {
		serveAddr := *advertise
		if serveAddr == "" {
			serveAddr = s.Addr()
		}
		id := *identity
		if id == "" {
			host, _ := os.Hostname()
			id = fmt.Sprintf("%s/%s", host, serveAddr)
		}
		agent, err = railctl.StartAgent(railctl.AgentConfig{
			Coordinator: *coordinator,
			ID:          id,
			Addr:        serveAddr,
			Capacity:    s.Capacity(),
			Interval:    *heartbeat,
			Stats:       func() opusnet.CacheStatsPayload { return s.Stats() },
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, format+"\n", args...)
			},
		})
		if err != nil {
			_ = s.Close()
			return err
		}
		fmt.Fprintf(stdout, "raild: joining fleet at %s as %s (capacity %d)\n", *coordinator, id, s.Capacity())
	}
	fmt.Fprintf(stdout, "raild: listening on %s\n", s.Addr())
	<-stop
	if agent != nil {
		// Graceful drain: announce the departure, finish what's in
		// flight, then leave — the coordinator hands any unstarted cells
		// to the next wave without counting a failover. A second signal
		// (or the -drain-timeout bound) forces shutdown.
		fmt.Fprintf(stdout, "raild: draining (finishing in-flight work, bound %v)\n", *drainTO)
		done := make(chan struct{})
		go func() {
			defer close(done)
			//lint:allow ctxbg the drain outlives no one: run() blocks on it right below
			ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
			defer cancel()
			if err := agent.Drain(ctx, "sigterm"); err != nil {
				fmt.Fprintf(stderr, "raild: drain announce: %v\n", err)
			}
			if err := s.DrainCtx(ctx); err != nil {
				fmt.Fprintf(stderr, "raild: drain wait: %v\n", err)
			}
		}()
		select {
		case <-done:
		case <-stop:
			fmt.Fprintf(stdout, "raild: second signal: forcing shutdown\n")
		}
		agent.Close()
	}
	fmt.Fprintf(stdout, "raild: shutting down\n")
	return s.Close()
}
