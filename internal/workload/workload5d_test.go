package workload

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"photonrail/internal/model"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
)

// cp4DConfig is a 4D job: Llama3-8B with TP=4 (intra-node), CP=2,
// FSDP=2, PP=2 on 8 nodes of 4 GPUs (32 GPUs).
func cp4DConfig(t *testing.T) Config {
	t.Helper()
	cl, err := topo.Perlmutter(8, topo.TwoPort200G)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:          model.Llama3_8B,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             4,
		CP:             2,
		DP:             2,
		PP:             2,
		Microbatches:   4,
		MicrobatchSize: 2,
		Iterations:     1,
	}
}

// ep4DConfig is a 4D MoE job: Mixtral with TP=4, EP=2, FSDP=2, PP=2.
func ep4DConfig(t *testing.T) Config {
	t.Helper()
	cfg := cp4DConfig(t)
	cfg.Model = model.Mixtral8x7B
	cfg.CP = 1
	cfg.EP = 2
	return cfg
}

func TestCPWorkloadBuilds(t *testing.T) {
	p := MustBuild(cp4DConfig(t))
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Per fwd microbatch per layer there is one CP AllGather; per bwd
	// layer one CP ReduceScatter.
	var cpAG, cpRS int
	for _, task := range p.Tasks {
		if task.IsCollective() && task.Axis == parallelism.CP {
			switch task.CollKind {
			case parallelism.AllGather:
				cpAG++
			case parallelism.ReduceScatter:
				cpRS++
			}
		}
	}
	// ranks: 2 stages x 4 shards(d,c) x 4 tp x ... per rank-position:
	// 4 µb x 16 layers = 64 AG. Positions: 2 stages x (2 CP x 2 DP) x 4
	// rails = 32... wait: each CP op is one collective per (s, d, e, t,
	// mb, l) — shards with distinct c share the op? No: the CP group is
	// over c, so one op per (s,d,e,t,mb,l): 2x2x1x4 x 4 x 16 = 2048.
	want := 2 * 2 * 4 * 4 * 16
	if cpAG != want || cpRS != want {
		t.Errorf("CP ops = %d AG / %d RS, want %d each", cpAG, cpRS, want)
	}
	// CP groups stay on one rail.
	for name, g := range p.Groups {
		if !strings.HasPrefix(name, "cp.") {
			continue
		}
		if g.Axis != parallelism.CP || g.Size() != 2 {
			t.Errorf("group %s: axis %v size %d", name, g.Axis, g.Size())
		}
		rail := p.Cluster.LocalRank(g.Ranks[0])
		for _, r := range g.Ranks {
			if p.Cluster.LocalRank(r) != rail {
				t.Errorf("CP group %s spans rails", name)
			}
		}
	}
}

func TestEPWorkloadBuilds(t *testing.T) {
	p := MustBuild(ep4DConfig(t))
	var a2a int
	for _, task := range p.Tasks {
		if task.IsCollective() && task.CollKind == parallelism.AllToAll {
			if task.Axis != parallelism.EP {
				t.Fatalf("AllToAll outside EP axis: %s", task.Label)
			}
			a2a++
		}
	}
	// 2 per layer per pass: fwd 2 + bwd 2 = 4 per (layer, µb, position).
	// positions: (s, d, c, t) with e collapsed into the group: 2 stages x
	// 2 d x 1 c x 4 t = 16; x 4 µb x 16 layers x 4 = 4096.
	want := 16 * 4 * 16 * 4
	if a2a != want {
		t.Errorf("EP AllToAll ops = %d, want %d", a2a, want)
	}
}

func TestEPRequiresMoE(t *testing.T) {
	cfg := ep4DConfig(t)
	cfg.Model = model.Llama3_8B // dense
	if _, err := Build(cfg); err == nil {
		t.Error("EP on a dense model accepted")
	}
	cfg = ep4DConfig(t)
	cfg.EP = 16 // more than Experts=8... also breaks node count; check error
	if _, err := Build(cfg); err == nil {
		t.Error("EP > experts accepted")
	}
}

func TestShardNodeLayoutBijective(t *testing.T) {
	cfg := cp4DConfig(t)
	cfg.applyDefaults()
	b := &builder{cfg: cfg, cluster: cfg.Cluster}
	seen := make(map[topo.NodeID]bool)
	for s := 0; s < cfg.PP; s++ {
		for _, sh := range b.shards() {
			n := b.node(s, sh)
			if seen[n] {
				t.Fatalf("node %d assigned twice", n)
			}
			seen[n] = true
		}
	}
	if len(seen) != cfg.Cluster.NumNodes {
		t.Errorf("layout covers %d of %d nodes", len(seen), cfg.Cluster.NumNodes)
	}
}

// TestGroupRanksFollowPlacement pins the program's one rank layout on a
// 5D job: the rank position (stage s, shard (d, c, e), TP rank r) sits on
// GPU r + TP·(d + DP·(c + CP·(e + EP·s))), the placement of builder.node
// and Cluster.GPUAt, and every pp, fsdp, cp and ep group lists its
// members in that order along its own axis.
func TestGroupRanksFollowPlacement(t *testing.T) {
	const tp, dp, cp, ep, pp = 4, 2, 2, 2, 2
	p := MustBuild(Config{
		Model:        model.Mixtral8x7B,
		GPU:          model.A100,
		Cluster:      topo.MustNew(topo.Config{NumNodes: dp * cp * ep * pp, GPUsPerNode: tp}),
		TP:           tp,
		DP:           dp,
		CP:           cp,
		EP:           ep,
		PP:           pp,
		Microbatches: pp,
	})
	rank := func(s, d, c, e, r int) topo.GPUID {
		return topo.GPUID(r + tp*(d+dp*(c+cp*(e+ep*s))))
	}
	type group struct {
		axis  parallelism.Axis
		ranks []topo.GPUID
	}
	want := make(map[string]group)
	add := func(name string, axis parallelism.Axis, n int, at func(i int) topo.GPUID) {
		g := group{axis: axis, ranks: make([]topo.GPUID, n)}
		for i := range g.ranks {
			g.ranks[i] = at(i)
		}
		want[name] = g
	}
	for s := 0; s < pp; s++ {
		for e := 0; e < ep; e++ {
			for c := 0; c < cp; c++ {
				for d := 0; d < dp; d++ {
					for r := 0; r < tp; r++ {
						add(fmt.Sprintf("pp.d%d.c%d.e%d.r%d", d, c, e, r), parallelism.PP, pp,
							func(i int) topo.GPUID { return rank(i, d, c, e, r) })
						add(fmt.Sprintf("fsdp.s%d.c%d.e%d.r%d", s, c, e, r), parallelism.FSDP, dp,
							func(i int) topo.GPUID { return rank(s, i, c, e, r) })
						add(fmt.Sprintf("cp.s%d.d%d.e%d.r%d", s, d, e, r), parallelism.CP, cp,
							func(i int) topo.GPUID { return rank(s, d, i, e, r) })
						add(fmt.Sprintf("ep.s%d.d%d.c%d.r%d", s, d, c, r), parallelism.EP, ep,
							func(i int) topo.GPUID { return rank(s, d, c, i, r) })
					}
				}
			}
		}
	}
	if len(p.Groups) != len(want) {
		t.Errorf("program has %d groups, want %d", len(p.Groups), len(want))
	}
	for name, w := range want {
		g, ok := p.Groups[name]
		if !ok {
			t.Errorf("group %s missing", name)
			continue
		}
		if g.Axis != w.axis || !slices.Equal(g.Ranks, w.ranks) {
			t.Errorf("group %s: %v %v, want %v %v", name, g.Axis, g.Ranks, w.axis, w.ranks)
		}
	}
}

// TestEq1StructureWithCP checks that adding CP multiplies the number of
// inter-parallelism transitions the way Eq. 1 predicts: the 3D workload
// has O(PP) windows; the 4D workload gains the per-layer and
// per-microbatch CP interleave terms.
func TestEq1StructureWithCP(t *testing.T) {
	with, err := parallelism.WindowCount(parallelism.WindowCountConfig{
		PP: 2, Layers: 32, Microbatches: 4, HasCP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := parallelism.WindowCount(parallelism.WindowCountConfig{
		PP: 2, Layers: 32, Microbatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4(PP-1)+4 = 8 without; +2(16-1)+4*4 = +46 with CP.
	if without != 8 || with != 54 {
		t.Errorf("window counts = %d / %d, want 8 / 54", without, with)
	}
}
