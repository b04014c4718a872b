// The real Opus control plane: start the controller as a TCP server,
// connect one shim client per rail-0 GPU, and drive a full §3.1
// iteration's phase sequence — AllGather, pipeline warm-up/steady,
// ReduceScatter, sync — through real sockets, with the group-sync,
// FC-FS, and provisioning semantics of the paper's §4.1 design.
//
//	go run ./examples/opus_controlplane
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

func main() {
	log.SetFlags(0)

	cluster, err := topo.Perlmutter(4, topo.TwoPort200G)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := opusnet.NewServer(opusnet.ServerConfig{
		Cluster:         cluster,
		ReconfigLatency: 15 * units.Millisecond, // 3D MEMS class
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("controller up at %s for %s\n\n", srv.Addr(), cluster)

	// One shim client per rail-0 GPU (ranks 0, 4, 8, 12).
	ranks := []int{0, 4, 8, 12}
	clients := make(map[int]*opusnet.Client, len(ranks))
	for _, r := range ranks {
		c, err := opusnet.Dial(srv.Addr(), r)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		clients[r] = c
	}

	// The rail-0 communication groups of the TP=4/FSDP=2/PP=2 job.
	groups := map[string][]int{
		"fsdp.s0.r0": {0, 4},  // stage-0 FSDP ring
		"fsdp.s1.r0": {8, 12}, // stage-1 FSDP ring
		"pp.d0.r0":   {0, 8},  // shard-0 pipeline
		"pp.d1.r0":   {4, 12}, // shard-1 pipeline
	}
	for name, members := range groups {
		for _, r := range members {
			if err := clients[r].RegisterGroup(name, 0, 0, members); err != nil {
				log.Fatal(err)
			}
		}
	}

	collective := func(name string) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for _, r := range groups[name] {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := clients[r].Acquire(name, 0); err != nil {
					log.Fatalf("rank %d acquire %s: %v", r, name, err)
				}
				// Transfer would happen here, GPU to GPU over the
				// circuit; the control plane only brackets it.
				if err := clients[r].Release(name, 0); err != nil {
					log.Fatalf("rank %d release %s: %v", r, name, err)
				}
			}(r)
		}
		wg.Wait()
		return time.Since(start)
	}

	phase := func(label string, names ...string) {
		start := time.Now()
		var wg sync.WaitGroup
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				collective(name)
			}(name)
		}
		wg.Wait()
		fmt.Printf("%-22s %8.1fms\n", label, float64(time.Since(start).Microseconds())/1000)
	}

	fmt.Println("iteration 1 (reactive — every phase switch pays the OCS latency):")
	phase("  AllGather (FSDP)", "fsdp.s0.r0", "fsdp.s1.r0")
	phase("  pipeline (PP)", "pp.d0.r0", "pp.d1.r0")
	phase("  ReduceScatter (FSDP)", "fsdp.s0.r0", "fsdp.s1.r0")
	phase("  sync AR (PP)", "pp.d0.r0", "pp.d1.r0")

	fmt.Println("\niteration 2 (provisioned — the shim pre-announces each next phase):")
	provision := func(names ...string) {
		for _, n := range names {
			if err := clients[groups[n][0]].Provision(n, 0); err != nil {
				log.Fatal(err)
			}
		}
	}
	provision("fsdp.s0.r0", "fsdp.s1.r0")
	time.Sleep(40 * time.Millisecond) // the inter-iteration window
	phase("  AllGather (FSDP)", "fsdp.s0.r0", "fsdp.s1.r0")
	provision("pp.d0.r0", "pp.d1.r0")
	time.Sleep(40 * time.Millisecond) // compute window
	phase("  pipeline (PP)", "pp.d0.r0", "pp.d1.r0")
	provision("fsdp.s0.r0", "fsdp.s1.r0")
	time.Sleep(40 * time.Millisecond) // backward-pass window
	phase("  ReduceScatter (FSDP)", "fsdp.s0.r0", "fsdp.s1.r0")
	provision("pp.d0.r0", "pp.d1.r0")
	time.Sleep(40 * time.Millisecond)
	phase("  sync AR (PP)", "pp.d0.r0", "pp.d1.r0")

	st, err := clients[0].Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncontroller telemetry: %d reconfigurations, %d fast grants, %d queued, %d provisioned\n",
		st.Reconfigurations, st.FastGrants, st.QueuedGrants, st.ProvisionedRequests)
	fmt.Println("with provisioning, phases complete in microseconds: the 15ms switch")
	fmt.Println("latency was hidden inside the inter-phase windows (Fig. 5b).")
}
