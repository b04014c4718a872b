package workload

import (
	"hash/fnv"
	"strings"
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// coldDeck returns the workloads of the cold-sweep benchmark's fourteen
// grid shapes (bench/workloads.go's deck): Llama3-8B and Llama3-70B
// with the 3D and 4D parallelisms and Mixtral-8x7B with 3D, 4D and 5D,
// each shape twice (the benchmark sweeps the second one's static
// partition too), at 4, 6 or 8 microbatches, one iteration, and
// compute jitter on, as every cold-sweep grid has it.
func coldDeck(tb testing.TB) []Config {
	tb.Helper()
	type par struct{ dp, cp, ep int }
	p3D, p4D, p5D := par{2, 1, 1}, par{1, 2, 1}, par{1, 1, 2}
	pairs := []struct {
		m model.Spec
		p par
	}{
		{model.Llama3_8B, p3D}, {model.Llama3_8B, p4D},
		{model.Mixtral8x7B, p3D}, {model.Mixtral8x7B, p4D}, {model.Mixtral8x7B, p5D},
		{model.Llama3_70B, p3D}, {model.Llama3_70B, p4D},
	}
	gpus := model.GPUPresets()
	var deck []Config
	for _, pr := range pairs {
		for i := 0; i < 2; i++ {
			k := len(deck)
			cl, err := topo.Perlmutter(4, topo.TwoPort200G)
			if err != nil {
				tb.Fatal(err)
			}
			deck = append(deck, Config{
				Model:          pr.m,
				GPU:            gpus[k%len(gpus)],
				Cluster:        cl,
				TP:             4,
				DP:             pr.p.dp,
				CP:             pr.p.cp,
				EP:             pr.p.ep,
				PP:             2,
				Microbatches:   4 + 2*(k%3),
				MicrobatchSize: 2,
				Iterations:     1,
				JitterFrac:     0.01 + 1e-4*float64(k),
			})
		}
	}
	return deck
}

// TestJitterMatchesFNV64a: the builder's inline hash is FNV-64a, so
// every compute duration of a jittered program is its unjittered twin's
// scaled by the factor hash/fnv gives the task's label. The optimizer
// step is not jittered.
func TestJitterMatchesFNV64a(t *testing.T) {
	cfg := coldDeck(t)[8] // Mixtral-8x7B, 5D
	if cfg.EP != 2 {
		t.Fatalf("deck shape 8 has EP=%d, want the 5D shape", cfg.EP)
	}
	cfg.JitterFrac = 0.03
	jittered := MustBuild(cfg)
	cfg.JitterFrac = 0
	plain := MustBuild(cfg)
	if len(jittered.Tasks) != len(plain.Tasks) {
		t.Fatalf("jitter changed the task count: %d vs %d", len(jittered.Tasks), len(plain.Tasks))
	}
	moved := 0
	for i, task := range jittered.Tasks {
		base := plain.Tasks[i]
		if task.Label != base.Label || task.Kind != base.Kind {
			t.Fatalf("task %d: %q vs %q without jitter", i, task.Label, base.Label)
		}
		if task.Kind != Compute {
			continue
		}
		want := base.Duration
		if !strings.HasPrefix(task.Label, "OPT ") {
			h := fnv.New64a()
			_, _ = h.Write([]byte(task.Label))
			u := float64(h.Sum64()%2048)/1024 - 1
			want = units.Duration(float64(base.Duration) * (1 + 0.03*u))
		}
		if task.Duration != want {
			t.Fatalf("task %d (%s): duration %d, hash/fnv gives %d", i, task.Label, task.Duration, want)
		}
		if task.Duration != base.Duration {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no compute duration was jittered")
	}
}

// labelOps are the op prefixes of every label the builder makes.
var labelOps = []string{
	"F ", "B ", "OPT ", "SRf ", "SRb ", "AG ", "RS ",
	"AR norm-pp ", "AR norm-dp ", "AR loss ",
	"CPAG ", "CPRS ", "EPA2A-d ", "EPA2A-c ", "EPA2A-cb ", "EPA2A-db ",
}

// TestLabelsDistinctPerIteration: labels name ops without their
// iteration, so within one iteration they are pairwise distinct, and
// each starts with its op. A label that shared bytes the builder later
// overwrites would show here as a duplicate or a foreign prefix.
func TestLabelsDistinctPerIteration(t *testing.T) {
	deck := coldDeck(t)
	for _, k := range []int{0, 2, 8} { // Llama3-8B 3D and 4D, Mixtral-8x7B 5D
		cfg := deck[k]
		cfg.Iterations = 2
		p := MustBuild(cfg)
		seen := make([]map[string]TaskID, cfg.Iterations)
		for i := range seen {
			seen[i] = make(map[string]TaskID)
		}
		for _, task := range p.Tasks {
			known := false
			for _, op := range labelOps {
				known = known || strings.HasPrefix(task.Label, op)
			}
			if !known {
				t.Fatalf("shape %d: task %d has label %q with no known op", k, task.ID, task.Label)
			}
			if prev, dup := seen[task.Iteration][task.Label]; dup {
				t.Fatalf("shape %d, iteration %d: tasks %d and %d share label %q",
					k, task.Iteration, prev, task.ID, task.Label)
			}
			seen[task.Iteration][task.Label] = task.ID
		}
		if len(seen[0]) != len(seen[1]) || len(seen[0])+len(seen[1]) != len(p.Tasks) {
			t.Fatalf("shape %d: %d and %d labels in two iterations of %d tasks",
				k, len(seen[0]), len(seen[1]), len(p.Tasks))
		}
	}
}

var buildSink *Program

// BenchmarkBuild compiles the cold-sweep deck's fourteen workloads once
// per op: the Build stage of a cold-sweep round, without the
// simulations.
func BenchmarkBuild(b *testing.B) {
	deck := coldDeck(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range deck {
			buildSink = MustBuild(cfg)
		}
	}
}
