// Command opusim simulates hybrid-parallel training on a rail fabric:
// one run on a chosen fabric, or the full Fig. 8 reconfiguration-latency
// sweep.
//
// Usage:
//
//	opusim [flags]
//	opusim -sweep                # regenerate Fig. 8
//	opusim -fabric photonic -latency 25 -provision
//
// Flags configure the workload (defaults are the paper's §3.1 Llama3-8B
// job) and the fabric.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"photonrail"
	"photonrail/internal/model"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("opusim: ")

	var (
		modelName  = flag.String("model", "Llama3-8B", "model preset: Llama3-8B, Llama3-70B, Llama3.1-405B, Mixtral-8x7B")
		gpuName    = flag.String("gpu", "A100", "GPU preset: A100, H100, H200")
		nodes      = flag.Int("nodes", 4, "scale-up domain count")
		perNode    = flag.Int("gpus-per-node", 4, "GPUs per scale-up domain (= rails = TP)")
		dp         = flag.Int("dp", 2, "FSDP degree")
		pp         = flag.Int("pp", 2, "pipeline degree")
		cp         = flag.Int("cp", 1, "context-parallel degree (1 = off)")
		ep         = flag.Int("ep", 1, "expert-parallel degree (1 = off; MoE models only)")
		gpipe      = flag.Bool("gpipe", false, "use the GPipe schedule instead of 1F1B")
		microbatch = flag.Int("microbatches", 12, "microbatches per iteration")
		mbs        = flag.Int("mbs", 2, "microbatch size (sequences)")
		iters      = flag.Int("iterations", 2, "training iterations")
		fabric     = flag.String("fabric", "photonic", "fabric: electrical, photonic, static")
		latency    = flag.Float64("latency", 15, "OCS reconfiguration latency (ms)")
		provision  = flag.Bool("provision", false, "enable Opus provisioning")
		nic        = flag.String("nic", "2x200", "NIC port configuration: 1x400, 2x200, 4x100")
		sweep      = flag.Bool("sweep", false, "run the Fig. 8 latency sweep and exit")
	)
	flag.Parse()

	w, err := buildWorkload(*modelName, *gpuName, *nodes, *perNode, *dp, *pp, *microbatch, *mbs, *iters, *nic)
	if err != nil {
		log.Fatal(err)
	}
	w.CP = *cp
	w.EP = *ep
	w.UseGPipe = *gpipe

	if *sweep {
		points, err := photonrail.SweepReconfigLatency(w, photonrail.PaperLatenciesMS())
		if err != nil {
			log.Fatal(err)
		}
		if err := photonrail.Fig8Table(points).Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	f, err := parseFabric(*fabric, *latency, *provision)
	if err != nil {
		log.Fatal(err)
	}
	res, err := photonrail.Simulate(w, f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fabric:            %s (latency %gms, provision %v)\n", *fabric, *latency, *provision)
	fmt.Printf("total time:        %.4fs\n", res.TotalSeconds)
	fmt.Printf("mean iteration:    %.4fs\n", res.MeanIterationSeconds)
	fmt.Printf("reconfigurations:  %d\n", res.Reconfigurations)
	fmt.Printf("fast grants:       %d\n", res.FastGrants)
	fmt.Printf("queued grants:     %d\n", res.QueuedGrants)
	fmt.Printf("blocked time:      %.4fs\n", res.BlockedSeconds)
}

func buildWorkload(modelName, gpuName string, nodes, perNode, dp, pp, microbatches, mbs, iters int, nic string) (photonrail.Workload, error) {
	w := photonrail.Workload{
		NumNodes:       nodes,
		GPUsPerNode:    perNode,
		TP:             perNode,
		DP:             dp,
		PP:             pp,
		Microbatches:   microbatches,
		MicrobatchSize: mbs,
		Iterations:     iters,
	}
	var ok bool
	if w.Model, ok = model.ByName(modelName); !ok {
		return w, fmt.Errorf("unknown model %q", modelName)
	}
	if w.GPU, ok = model.GPUByName(gpuName); !ok {
		return w, fmt.Errorf("unknown GPU %q", gpuName)
	}
	switch nic {
	case "1x400":
		w.NIC = photonrail.OnePort400G
	case "2x200":
		w.NIC = photonrail.TwoPort200G
	case "4x100":
		w.NIC = photonrail.FourPort100G
	default:
		return w, fmt.Errorf("unknown NIC config %q", nic)
	}
	return w, nil
}

func parseFabric(name string, latencyMS float64, provision bool) (photonrail.Fabric, error) {
	switch strings.ToLower(name) {
	case "electrical":
		return photonrail.Fabric{Kind: photonrail.ElectricalRail}, nil
	case "photonic":
		return photonrail.Fabric{Kind: photonrail.PhotonicRail, ReconfigLatencyMS: latencyMS, Provision: provision}, nil
	case "static":
		return photonrail.Fabric{Kind: photonrail.PhotonicStaticPartition}, nil
	default:
		return photonrail.Fabric{}, fmt.Errorf("unknown fabric %q", name)
	}
}
