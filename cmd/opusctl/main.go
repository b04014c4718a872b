// Command opusctl runs the Opus TCP controller, or exercises one as a
// client: registering groups, acquiring/releasing circuits, and reading
// telemetry. It is the operational face of the real control plane
// (internal/opusnet).
//
// Usage:
//
//	opusctl serve -addr 127.0.0.1:9350 -nodes 4 -gpus-per-node 4 -latency 15
//	opusctl stats -addr 127.0.0.1:9350
//	opusctl demo  -addr 127.0.0.1:9350   # drive a 3-phase iteration
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"photonrail/internal/opusnet"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

func main() {
	// Only serve waits for a signal; the client subcommands keep the
	// default interrupt behaviour.
	stop := make(chan os.Signal, 1)
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	}
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		fmt.Fprintf(os.Stderr, "opusctl: %v\n", err)
		os.Exit(1)
	}
}

// run executes one subcommand; serve returns once stop delivers. It is
// the testable core: main wires OS signals in, tests feed the channel
// directly.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	if len(args) < 1 {
		return errors.New("usage: opusctl <serve|stats|demo> [flags]")
	}
	cmd, args := args[0], args[1:]
	switch cmd {
	case "serve":
		return serve(args, stdout, stop)
	case "stats":
		return stats(args, stdout)
	case "demo":
		return demo(args, stdout)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

// parse parses a subcommand's flags. After -h, which prints the usage,
// it reports done with no error.
func parse(fs *flag.FlagSet, args []string) (done bool, err error) {
	err = fs.Parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return true, nil
	}
	return err != nil, err
}

func serve(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9350", "listen address")
	nodes := fs.Int("nodes", 4, "scale-up domains")
	perNode := fs.Int("gpus-per-node", 4, "GPUs per domain")
	latency := fs.Float64("latency", 15, "OCS reconfiguration latency (ms)")
	if done, err := parse(fs, args); done || err != nil {
		return err
	}

	cl, err := topo.New(topo.Config{NumNodes: *nodes, GPUsPerNode: *perNode})
	if err != nil {
		return err
	}
	srv, err := opusnet.NewServer(opusnet.ServerConfig{
		Cluster:         cl,
		ReconfigLatency: units.FromMilliseconds(*latency),
		Addr:            *addr,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "opus controller listening on %s (%s, latency %gms)\n", srv.Addr(), cl, *latency)
	<-stop
	return srv.Close()
}

func stats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9350", "controller address")
	if done, err := parse(fs, args); done || err != nil {
		return err
	}
	c, err := opusnet.Dial(*addr, -1)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reconfigurations:     %d\n", st.Reconfigurations)
	fmt.Fprintf(stdout, "fast grants:          %d\n", st.FastGrants)
	fmt.Fprintf(stdout, "queued grants:        %d\n", st.QueuedGrants)
	fmt.Fprintf(stdout, "blocked time:         %v\n", st.BlockedTime)
	fmt.Fprintf(stdout, "provisioned requests: %d\n", st.ProvisionedRequests)
	return nil
}

// demo drives the §3.1 rail-0 phase sequence (AG → PP → RS → sync)
// against a running controller with four concurrent rank clients.
func demo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9350", "controller address")
	if done, err := parse(fs, args); done || err != nil {
		return err
	}

	ranks := []int{0, 4, 8, 12}
	clients := make(map[int]*opusnet.Client)
	for _, r := range ranks {
		c, err := opusnet.Dial(*addr, r)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[r] = c
	}
	groups := map[string][]int{
		"fsdp.s0.r0": {0, 4},
		"fsdp.s1.r0": {8, 12},
		"pp.d0.r0":   {0, 8},
		"pp.d1.r0":   {4, 12},
	}
	for name, members := range groups {
		for _, r := range members {
			if err := clients[r].RegisterGroup(name, 0, 0, members); err != nil {
				return err
			}
		}
	}
	phase := func(label string, names ...string) error {
		var wg sync.WaitGroup
		errs := make(chan error, len(ranks)) // a phase's groups are disjoint
		for _, name := range names {
			for _, r := range groups[name] {
				wg.Add(1)
				go func(r int, name string) {
					defer wg.Done()
					if err := clients[r].Acquire(name, 0); err != nil {
						errs <- fmt.Errorf("rank %d acquire %s: %w", r, name, err)
						return
					}
					if err := clients[r].Release(name, 0); err != nil {
						errs <- fmt.Errorf("rank %d release %s: %w", r, name, err)
					}
				}(r, name)
			}
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return err
		}
		fmt.Fprintf(stdout, "phase %-12s done\n", label)
		return nil
	}
	if err := phase("AllGather", "fsdp.s0.r0", "fsdp.s1.r0"); err != nil {
		return err
	}
	if err := phase("pipeline", "pp.d0.r0", "pp.d1.r0"); err != nil {
		return err
	}
	if err := phase("ReduceScatter", "fsdp.s0.r0", "fsdp.s1.r0"); err != nil {
		return err
	}
	if err := phase("sync", "pp.d0.r0", "pp.d1.r0"); err != nil {
		return err
	}
	st, err := clients[0].Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "controller: %d reconfigurations, %d fast grants, %d queued\n",
		st.Reconfigurations, st.FastGrants, st.QueuedGrants)
	return nil
}
