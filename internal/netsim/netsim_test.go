package netsim

import (
	"strings"
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/topo"
	"photonrail/internal/trace"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

const ms = units.Millisecond

// paperProgram builds the §3.1 workload: Llama3-8B, TP=4, FSDP=2, PP=2
// on 4 nodes x 4 A100s, 12 microbatches of size 2.
func paperProgram(t *testing.T, iterations int) *workload.Program {
	t.Helper()
	cl, err := topo.Perlmutter(4, topo.TwoPort200G)
	if err != nil {
		t.Fatal(err)
	}
	return workload.MustBuild(workload.Config{
		Model:          model.Llama3_8B,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             4,
		DP:             2,
		PP:             2,
		Microbatches:   12,
		MicrobatchSize: 2,
		Iterations:     iterations,
	})
}

func run(t *testing.T, p *workload.Program, opts Options) *Result {
	t.Helper()
	res, err := Run(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestElectricalCompletes(t *testing.T) {
	p := paperProgram(t, 2)
	res := run(t, p, Options{Mode: Electrical, RecordTrace: true})
	if res.Total <= 0 {
		t.Fatal("no time elapsed")
	}
	if len(res.IterationTimes) != 2 {
		t.Fatalf("iteration times = %v", res.IterationTimes)
	}
	// An iteration should take seconds (calibration guard for Fig. 8).
	it := res.MeanIterationTime()
	if it < 5*units.Second || it > 60*units.Second {
		t.Errorf("iteration time %v outside 5-60s calibration band", it)
	}
	if res.Reconfigurations != 0 {
		t.Errorf("electrical run reconfigured %d times", res.Reconfigurations)
	}
}

func TestDeterminism(t *testing.T) {
	p := paperProgram(t, 1)
	a := run(t, p, Options{Mode: Photonic, ReconfigLatency: 15 * ms})
	b := run(t, p, Options{Mode: Photonic, ReconfigLatency: 15 * ms})
	if a.Total != b.Total || a.Reconfigurations != b.Reconfigurations {
		t.Errorf("nondeterministic: %v/%d vs %v/%d", a.Total, a.Reconfigurations, b.Total, b.Reconfigurations)
	}
}

func TestZeroLatencyPhotonicNearElectrical(t *testing.T) {
	p := paperProgram(t, 2)
	el := run(t, p, Options{Mode: Electrical})
	ph := run(t, p, Options{Mode: Photonic, ReconfigLatency: 0})
	// Zero-latency circuits still serialize conflicting concurrent
	// groups (FCFS), so allow a small gap — but it must be tiny.
	ratio := float64(ph.Total) / float64(el.Total)
	if ratio < 1.0 || ratio > 1.02 {
		t.Errorf("photonic@0 / electrical = %.4f, want [1.00, 1.02]", ratio)
	}
}

func TestLatencyMonotonicity(t *testing.T) {
	p := paperProgram(t, 2)
	latencies := []units.Duration{0, ms, 10 * ms, 100 * ms, 1000 * ms}
	var prev units.Duration
	for _, l := range latencies {
		res := run(t, p, Options{Mode: Photonic, ReconfigLatency: l})
		if res.Total < prev {
			t.Errorf("latency %v: total %v < previous %v", l, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestReconfigurationCountIsSmall(t *testing.T) {
	// Objective 2: Opus reconfigures only on parallelism shifts. For
	// PP=2/FSDP=2 with 12 microbatches there are hundreds of collectives
	// per rail but only a handful of parallelism shifts.
	p := paperProgram(t, 2)
	res := run(t, p, Options{Mode: Photonic, ReconfigLatency: 15 * ms})
	perRailPerIter := float64(res.Reconfigurations) / 4.0 / 2.0
	if perRailPerIter < 3 || perRailPerIter > 20 {
		t.Errorf("reconfigurations per rail-iteration = %.1f, want 3-20 (got total %d)",
			perRailPerIter, res.Reconfigurations)
	}
	// The vast majority of acquisitions must be fast-path grants.
	if res.FastGrants < 5*res.QueuedGrants {
		t.Errorf("fast grants %d vs queued %d: circuits are thrashing", res.FastGrants, res.QueuedGrants)
	}
}

func TestProvisioningReducesOverhead(t *testing.T) {
	p := paperProgram(t, 2)
	base := run(t, p, Options{Mode: Electrical})
	for _, latency := range []units.Duration{100 * ms, 1000 * ms} {
		reactive := run(t, p, Options{Mode: Photonic, ReconfigLatency: latency})
		provisioned := run(t, p, Options{Mode: Photonic, ReconfigLatency: latency, Provision: true})
		if provisioned.Total > reactive.Total {
			t.Errorf("latency %v: provisioning made it slower (%v > %v)", latency, provisioned.Total, reactive.Total)
		}
		// Both must still be slower than the baseline (latency costs
		// something) and provisioning must recover a visible fraction.
		if reactive.Total <= base.Total {
			t.Errorf("latency %v: reactive (%v) not slower than baseline (%v)", latency, reactive.Total, base.Total)
		}
		saved := reactive.Total - provisioned.Total
		overhead := reactive.Total - base.Total
		if overhead > 0 && float64(saved)/float64(overhead) < 0.2 {
			t.Errorf("latency %v: provisioning saved only %v of %v overhead", latency, saved, overhead)
		}
	}
}

func TestFig8ShapeAt100ms(t *testing.T) {
	// Paper Fig. 8: at 100 ms switching delay, ~6.5%% slowdown without
	// provisioning and ~3.5%% with. We assert the band loosely:
	// reactive in [2%%, 20%%], provisioned at most reactive and under
	// 12%%.
	p := paperProgram(t, 3)
	base := run(t, p, Options{Mode: Electrical})
	reactive := run(t, p, Options{Mode: Photonic, ReconfigLatency: 100 * ms})
	provisioned := run(t, p, Options{Mode: Photonic, ReconfigLatency: 100 * ms, Provision: true})
	nr := float64(reactive.MeanIterationTime()) / float64(base.MeanIterationTime())
	np := float64(provisioned.MeanIterationTime()) / float64(base.MeanIterationTime())
	if nr < 1.02 || nr > 1.20 {
		t.Errorf("reactive normalized iter time = %.3f, want [1.02, 1.20]", nr)
	}
	if np > nr || np > 1.12 {
		t.Errorf("provisioned normalized iter time = %.3f (reactive %.3f)", np, nr)
	}
}

func TestStaticPartitionFeasibility(t *testing.T) {
	// 2 scale-out axes on a 2-port NIC: C2 says static is infeasible.
	p := paperProgram(t, 1)
	if _, err := Run(p, Options{Mode: PhotonicStatic}); err == nil {
		t.Fatal("static partition on 2-port NIC accepted for 2 axes")
	} else if !strings.Contains(err.Error(), "C2") {
		t.Errorf("error %v does not cite C2", err)
	}
	// With 4x100G ports it is feasible...
	cl, err := topo.Perlmutter(4, topo.FourPort100G)
	if err != nil {
		t.Fatal(err)
	}
	p4 := workload.MustBuild(workload.Config{
		Model: model.Llama3_8B, GPU: model.A100, Cluster: cl,
		TP: 4, DP: 2, PP: 2, Microbatches: 12, MicrobatchSize: 2, Iterations: 1,
	})
	static := run(t, p4, Options{Mode: PhotonicStatic})
	// ...but pays C3's bandwidth fragmentation: slower than Opus
	// time-multiplexing on the same NIC with a fast (SiP/RotorNet-class)
	// switch.
	opus := run(t, p4, Options{Mode: Photonic, ReconfigLatency: ms, Provision: true})
	if static.Total <= opus.Total {
		t.Errorf("static (%v) should be slower than Opus (%v) — C3", static.Total, opus.Total)
	}
	if static.Reconfigurations != 0 {
		// Static controllers install once per group; installs are
		// zero-latency "reconfigurations" only at start. Accept a small
		// count but it must not scale with microbatches.
	}
}

func TestTraceWindows(t *testing.T) {
	p := paperProgram(t, 2)
	res := run(t, p, Options{Mode: Electrical, RecordTrace: true})
	tr := res.Trace
	if tr == nil || tr.Len() == 0 {
		t.Fatal("no trace")
	}
	// Rails 0..3 all carry traffic with identical patterns (TP symmetry).
	rails := tr.Rails()
	if len(rails) != 4 {
		t.Fatalf("rails = %v", rails)
	}
	w0 := tr.Windows(0, 1)
	w1 := tr.Windows(1, 1)
	if len(w0) == 0 || len(w0) != len(w1) {
		t.Fatalf("windows: rail0=%d rail1=%d", len(w0), len(w1))
	}
	// §3.1: the biggest traffic (the RS burst) is preceded by the
	// largest positive window.
	var maxWin units.Duration
	var winBeforeBiggest units.Duration
	var maxBytes units.ByteSize
	for _, w := range w0 {
		if w.Size > maxWin {
			maxWin = w.Size
		}
		if w.AfterBytes > maxBytes {
			maxBytes = w.AfterBytes
			winBeforeBiggest = w.Size
		}
	}
	if winBeforeBiggest != maxWin {
		t.Errorf("largest window (%v) does not precede the biggest traffic (window %v)", maxWin, winBeforeBiggest)
	}
	// Majority of positive windows should exceed 1ms (paper: >75%).
	sizes := trace.WindowSizesMS(w0)
	over1 := 0
	for _, s := range sizes {
		if s > 1 {
			over1++
		}
	}
	if float64(over1) < 0.5*float64(len(sizes)) {
		t.Errorf("only %d/%d windows over 1ms", over1, len(sizes))
	}
}

func TestScaleUpSpansBypassRails(t *testing.T) {
	// Build a tiny program manually exercising the scale-up path: reuse
	// the paper program but check that no recorded rail span has
	// ScaleUpRail (TP is folded into compute in this workload).
	p := paperProgram(t, 1)
	res := run(t, p, Options{Mode: Photonic, ReconfigLatency: ms, RecordTrace: true})
	for _, s := range res.Trace.Spans() {
		if s.Rail == trace.ScaleUpRail {
			t.Fatalf("unexpected scale-up span %q", s.Label)
		}
	}
}

func TestProfileReuse(t *testing.T) {
	p := paperProgram(t, 2)
	first := run(t, p, Options{Mode: Photonic, ReconfigLatency: 50 * ms})
	reused := run(t, p, Options{Mode: Photonic, ReconfigLatency: 50 * ms, Provision: true, Profile: first.Profile})
	auto := run(t, p, Options{Mode: Photonic, ReconfigLatency: 50 * ms, Provision: true})
	if reused.Total != auto.Total {
		t.Errorf("explicit profile (%v) and auto-profiled (%v) runs differ", reused.Total, auto.Total)
	}
}

func TestInvalidOptions(t *testing.T) {
	p := paperProgram(t, 1)
	if _, err := Run(p, Options{Mode: Photonic, ReconfigLatency: -ms}); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := Run(p, Options{Mode: Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Electrical, Photonic, PhotonicStatic, Mode(9)} {
		if m.String() == "" {
			t.Error("empty mode string")
		}
	}
}
