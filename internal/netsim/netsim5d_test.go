package netsim

import (
	"strings"
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// cp4DProgram is the 4D job: Llama3-8B, TP=4, CP=2, FSDP=2, PP=2 on 32
// GPUs — three scale-out axes, the paper's C2 example ("adding CP would
// be infeasible without additional NICs or switching hardware").
func cp4DProgram(t *testing.T, nic topo.PortConfig, iterations int) *workload.Program {
	t.Helper()
	cl, err := topo.Perlmutter(8, nic)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MustBuild(workload.Config{
		Model:          model.Llama3_8B,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             4,
		CP:             2,
		DP:             2,
		PP:             2,
		Microbatches:   4,
		MicrobatchSize: 2,
		Iterations:     iterations,
	})
}

// TestC2StaticInfeasibleOpusFeasible is the paper's §3 headline: a
// 4D-parallel job cannot hold static circuits for all three scale-out
// axes even on a 4-port NIC, but runs under Opus reconfiguration with a
// 2-port NIC.
func TestC2StaticInfeasibleOpusFeasible(t *testing.T) {
	// Static partitioning: 3 axes x 2 ports = 6 > 4 ports.
	p4 := cp4DProgram(t, topo.FourPort100G, 1)
	if _, err := Run(p4, Options{Mode: PhotonicStatic}); err == nil {
		t.Fatal("static 4D accepted on a 4-port NIC")
	} else if !strings.Contains(err.Error(), "C2") {
		t.Errorf("error %v does not cite C2", err)
	}
	// Opus: runs on a 2-port NIC.
	p2 := cp4DProgram(t, topo.TwoPort200G, 1)
	res, err := Run(p2, Options{Mode: Photonic, ReconfigLatency: units.FromMilliseconds(0.01), Provision: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatal("no progress")
	}
	// And the electrical reference agrees at zero latency.
	el, err := Run(p2, Options{Mode: Electrical})
	if err != nil {
		t.Fatal(err)
	}
	ph0, err := Run(p2, Options{Mode: Photonic, ReconfigLatency: 0})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(ph0.Total) / float64(el.Total)
	if ratio < 1.0 || ratio > 1.05 {
		t.Errorf("photonic@0 / electrical = %.4f for 4D job", ratio)
	}
}

// TestCPTrafficRidesRails checks the CP collectives appear on every rail
// and interleave with the other axes (the per-layer windows of Eq. 1's
// CP terms).
func TestCPTrafficRidesRails(t *testing.T) {
	p := cp4DProgram(t, topo.TwoPort200G, 1)
	res, err := Run(p, Options{Mode: Electrical, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Trace.Rails() {
		var cpOps int
		for _, s := range res.Trace.RailSpans(r, 0) {
			if s.Axis == parallelism.CP {
				cpOps++
			}
		}
		if cpOps == 0 {
			t.Errorf("rail %d has no CP traffic", r)
		}
	}
	// Phases per rail blow up versus the 3D job: the CP interleave terms
	// of Eq. 1.
	phases := res.Trace.Phases(0, 0)
	if len(phases) < 20 {
		t.Errorf("4D job has only %d phases on rail 0; CP interleave missing", len(phases))
	}
}

// TestOCSLatencySensitivityOf4D: with per-layer CP switching, slow
// switches hurt far more than in the 3D job — the reason the paper's
// fine-grained in-job reconfiguration targets ms-class OCS technologies.
func TestOCSLatencySensitivityOf4D(t *testing.T) {
	p := cp4DProgram(t, topo.TwoPort200G, 1)
	el, err := Run(p, Options{Mode: Electrical})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(p, Options{Mode: Photonic, ReconfigLatency: units.FromMilliseconds(0.01), Provision: true})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(p, Options{Mode: Photonic, ReconfigLatency: units.FromMilliseconds(15), Provision: true})
	if err != nil {
		t.Fatal(err)
	}
	nFast := float64(fast.Total) / float64(el.Total)
	nSlow := float64(slow.Total) / float64(el.Total)
	if nFast > 1.05 {
		t.Errorf("RotorNet-class switch overhead = %.3f, want near baseline", nFast)
	}
	if nSlow <= nFast {
		t.Errorf("15ms switch (%.3f) should cost more than 0.01ms (%.3f) on a 4D job", nSlow, nFast)
	}
}

// TestMoEEPWorkloadRuns drives the EP AllToAll path end to end on the
// photonic fabric (multi-hop ring embedding).
func TestMoEEPWorkloadRuns(t *testing.T) {
	cl, err := topo.Perlmutter(8, topo.TwoPort200G)
	if err != nil {
		t.Fatal(err)
	}
	p := workload.MustBuild(workload.Config{
		Model:          model.Mixtral8x7B,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             4,
		EP:             2,
		DP:             2,
		PP:             2,
		Microbatches:   4,
		MicrobatchSize: 2,
		Iterations:     1,
	})
	res, err := Run(p, Options{Mode: Photonic, ReconfigLatency: units.FromMilliseconds(0.01), Provision: true, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var a2a int
	for _, s := range res.Trace.Spans() {
		if s.Kind == parallelism.AllToAll {
			a2a++
		}
	}
	if a2a == 0 {
		t.Fatal("no AllToAll spans recorded")
	}
	// Electrical reference must be faster or equal: the ring multi-hop
	// tax plus switching can only hurt.
	el, err := Run(p, Options{Mode: Electrical})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < el.Total {
		t.Errorf("photonic MoE (%v) beat electrical (%v)?", res.Total, el.Total)
	}
}

// paperNIC is the §3.1 NIC configuration.
func paperNIC() topo.PortConfig { return topo.TwoPort200G }
