package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"photonrail/internal/model"
	"photonrail/internal/topo"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// tinyModel is a small transformer so random-config runs stay fast.
var tinyModel = model.Spec{
	Name:          "tiny",
	Layers:        8,
	Hidden:        1024,
	FFNHidden:     2816,
	Heads:         8,
	KVHeads:       4,
	Vocab:         32000,
	SeqLen:        2048,
	BytesPerParam: 2,
	BytesPerGrad:  4,
}

// randomProgram builds the workload shape seed draws from the generated
// tests' grammar: TP, DP and PP in {1, 2, 4} and CP in {1, 2}, with some
// scale-out traffic, PP to PP+2 microbatches and one iteration of
// tinyModel on a photonic-rail cluster of two-port NICs.
func randomProgram(seed int64) (*workload.Program, error) {
	rng := rand.New(rand.NewSource(seed))
	tp := []int{1, 2, 4}[rng.Intn(3)]
	dp := []int{1, 2, 4}[rng.Intn(3)]
	pp := []int{1, 2, 4}[rng.Intn(3)]
	cp := []int{1, 2}[rng.Intn(2)]
	if dp*pp*cp == 1 {
		dp = 2 // ensure some scale-out traffic
	}
	mb := pp
	if extra := rng.Intn(3); extra > 0 {
		mb += extra
	}
	cl, err := topo.New(topo.Config{
		NumNodes:    dp * pp * cp,
		GPUsPerNode: tp,
		NIC:         topo.TwoPort200G,
	})
	if err != nil {
		return nil, err
	}
	return workload.Build(workload.Config{
		Model:          tinyModel,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             tp,
		DP:             dp,
		PP:             pp,
		CP:             cp,
		Microbatches:   mb,
		MicrobatchSize: 1,
		Iterations:     1,
	})
}

// TestRandomConfigsRunEverywhereProperty builds random valid workload
// shapes and checks the cross-fabric invariants on each:
//
//   - every fabric completes the program (no deadlock);
//   - photonic at zero latency equals the electrical baseline;
//   - photonic time is monotone in switching latency;
//   - runs are deterministic.
func TestRandomConfigsRunEverywhereProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("random end-to-end sweeps")
	}
	f := func(seed int64) bool {
		prog, err := randomProgram(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		el, err := Run(prog, Options{Mode: Electrical})
		if err != nil {
			t.Logf("seed %d electrical: %v", seed, err)
			return false
		}
		prev := units.Duration(0)
		for _, lat := range []units.Duration{0, units.Millisecond, 20 * units.Millisecond} {
			res, err := Run(prog, Options{Mode: Photonic, ReconfigLatency: lat})
			if err != nil {
				t.Logf("seed %d photonic@%v: %v", seed, lat, err)
				return false
			}
			if res.Total < prev {
				t.Logf("seed %d: non-monotone at %v", seed, lat)
				return false
			}
			prev = res.Total
			if lat == 0 {
				// Zero-latency circuits still serialize port-conflicting
				// concurrent groups (FC-FS); with CP's per-layer traffic
				// on a comm-heavy tiny model that serialization can cost
				// a few percent versus the packet-switched baseline.
				// The invariant is one-sided: circuits can only lose to
				// packets, and on pathological comm-dominated shapes the
				// serialization tax can reach tens of percent.
				ratio := float64(res.Total) / float64(el.Total)
				if ratio < 0.999 || ratio > 1.5 {
					t.Logf("seed %d: photonic@0/electrical = %.4f", seed, ratio)
					return false
				}
			}
			// Determinism.
			res2, err := Run(prog, Options{Mode: Photonic, ReconfigLatency: lat})
			if err != nil || res2.Total != res.Total {
				t.Logf("seed %d: nondeterministic at %v", seed, lat)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestCorruptedProgramRejected injects structural faults into a valid
// program and checks Run refuses rather than deadlocking silently.
func TestCorruptedProgramRejected(t *testing.T) {
	p := assembled(paperProgram(t, 1))
	// Forward dependency (cycle-ish): task 0 depending on a later task.
	p.Tasks[0].Deps = append(p.Tasks[0].Deps, p.Tasks[len(p.Tasks)-1].ID)
	if _, err := Run(p, Options{Mode: Electrical}); err == nil {
		t.Error("forward-dependency program accepted")
	}
	p.Tasks[0].Deps = p.Tasks[0].Deps[:0]

	// Collective with a rank outside its group.
	p2 := assembled(paperProgram(t, 1))
	for _, task := range p2.Tasks {
		if task.IsCollective() {
			task.Ranks = append([]topo.GPUID{}, task.Ranks...)
			task.Ranks[0] = task.Ranks[0] + 1 // very likely outside
			_, err := Run(p2, Options{Mode: Photonic})
			if err == nil {
				t.Error("corrupted collective membership accepted")
			}
			return
		}
	}
}

// assembled returns a program of p's parts that workload.Build has not
// certified, as a caller assembling a program by hand would pass it:
// Run must validate it itself.
func assembled(p *workload.Program) *workload.Program {
	return &workload.Program{Cluster: p.Cluster, Tasks: p.Tasks, Groups: p.Groups, Iterations: p.Iterations}
}
