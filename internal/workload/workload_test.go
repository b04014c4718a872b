package workload

import (
	"strings"
	"testing"

	"photonrail/internal/collective"
	"photonrail/internal/model"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// paperConfig is the §3.1 workload: Llama3-8B, TP=4 (intra-node),
// FSDP=2, PP=2 on 4 nodes of 4 GPUs.
func paperConfig(t *testing.T, iterations int) Config {
	t.Helper()
	cl, err := topo.Perlmutter(4, topo.TwoPort200G)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Model:          model.Llama3_8B,
		GPU:            model.A100,
		Cluster:        cl,
		TP:             4,
		DP:             2,
		PP:             2,
		Microbatches:   12,
		MicrobatchSize: 2,
		Iterations:     iterations,
	}
}

func TestBuildValidates(t *testing.T) {
	p, err := Build(paperConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(p.Tasks) == 0 {
		t.Fatal("no tasks")
	}
}

// TestValidIndex: a valid program's ValidIndex is its Index, whose
// successor lists and indegrees mirror the tasks' dependencies; an
// invalid program's is Validate's error, decided once — the verdict
// stands for the program's lifetime, which is immutable once built.
// Build records its program's verdict before returning it.
func TestValidIndex(t *testing.T) {
	p := MustBuild(paperConfig(t, 1))
	if p.idx == nil {
		t.Error("Build returned a program without its verdict and index")
	}
	ix, err := p.ValidIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ix != p.Index() {
		t.Error("ValidIndex returned another index than Index")
	}
	succs, edges := 0, 0
	for _, task := range p.Tasks {
		if ix.Indeg[task.ID] != len(task.Deps) {
			t.Fatalf("task %d: indegree %d, %d deps", task.ID, ix.Indeg[task.ID], len(task.Deps))
		}
		for _, d := range task.Deps {
			found := false
			for _, s := range ix.Succ[d] {
				found = found || s == task.ID
			}
			if !found {
				t.Fatalf("task %d missing from its dependency %d's successors", task.ID, d)
			}
		}
		succs += len(ix.Succ[task.ID])
		edges += len(task.Deps)
	}
	if succs != edges {
		t.Errorf("successor lists hold %d edges, the tasks %d", succs, edges)
	}

	// Build has certified its programs, so the invalid one is assembled
	// by hand from a built program's parts.
	built := MustBuild(paperConfig(t, 1))
	bad := &Program{Cluster: built.Cluster, Tasks: built.Tasks, Groups: built.Groups, Iterations: built.Iterations}
	bad.Tasks[0].Deps = append(bad.Tasks[0].Deps, bad.Tasks[len(bad.Tasks)-1].ID)
	ix, err = bad.ValidIndex()
	if err == nil || ix != nil {
		t.Fatalf("forward dependency: ValidIndex = %v, %v", ix, err)
	}
	bad.Tasks[0].Deps = bad.Tasks[0].Deps[:0]
	if _, again := bad.ValidIndex(); again != err {
		t.Errorf("second ValidIndex = %v, want the first verdict %v", again, err)
	}
}

func TestTaskIDsAndDepsOrdered(t *testing.T) {
	p := MustBuild(paperConfig(t, 2))
	for i, task := range p.Tasks {
		if int(task.ID) != i {
			t.Fatalf("task %d has ID %d", i, task.ID)
		}
		for _, d := range task.Deps {
			if d >= task.ID {
				t.Fatalf("task %d (%s) depends on later task %d", task.ID, task.Label, d)
			}
		}
	}
}

func TestGroupsOnExpectedRails(t *testing.T) {
	p := MustBuild(paperConfig(t, 1))
	// 4 rails x (2 FSDP groups + 2 PP groups) = 16 groups.
	if len(p.Groups) != 16 {
		t.Errorf("groups = %d, want 16", len(p.Groups))
	}
	cl := p.Cluster
	for name, g := range p.Groups {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// All members of a scale-out group share a rail (same local rank).
		rail := cl.LocalRank(g.Ranks[0])
		for _, r := range g.Ranks {
			if cl.LocalRank(r) != rail {
				t.Errorf("group %s spans rails: %v", name, g.Ranks)
			}
		}
	}
}

// TestGroupsNumberedInCreationOrder checks that Build numbers a
// program's groups 0, 1, … in the order it creates them (per rail t,
// the pipeline groups and then, stage by stage, the FSDP, CP and EP
// groups) and that the index lists them by number, on 3D, CP and EP
// programs.
func TestGroupsNumberedInCreationOrder(t *testing.T) {
	for _, cfg := range []Config{paperConfig(t, 1), cp4DConfig(t), ep4DConfig(t)} {
		p := MustBuild(cfg)
		ix, err := p.ValidIndex()
		if err != nil {
			t.Fatal(err)
		}
		cfg.applyDefaults()
		b := &builder{cfg: cfg, cluster: cfg.Cluster}
		var want []string
		for tp := 0; tp < cfg.TP; tp++ {
			if cfg.PP > 1 {
				for _, sh := range b.shards() {
					want = append(want, string(b.ppGroupName(sh, tp)))
				}
			}
			for s := 0; s < cfg.PP; s++ {
				if cfg.DP > 1 {
					for e := 0; e < cfg.EP; e++ {
						for c := 0; c < cfg.CP; c++ {
							want = append(want, string(b.fsdpGroupName(s, c, e, tp)))
						}
					}
				}
				if cfg.CP > 1 {
					for e := 0; e < cfg.EP; e++ {
						for d := 0; d < cfg.DP; d++ {
							want = append(want, string(b.cpGroupName(s, d, e, tp)))
						}
					}
				}
				if cfg.EP > 1 {
					for c := 0; c < cfg.CP; c++ {
						for d := 0; d < cfg.DP; d++ {
							want = append(want, string(b.epGroupName(s, d, c, tp)))
						}
					}
				}
			}
		}
		if len(ix.Groups) != len(want) || len(p.Groups) != len(want) {
			t.Fatalf("TP%d CP%d EP%d: index lists %d groups, program has %d, want %d",
				cfg.TP, cfg.CP, cfg.EP, len(ix.Groups), len(p.Groups), len(want))
		}
		for n, g := range ix.Groups {
			if g.ID != n || g.Name != want[n] || p.Groups[g.Name] != g {
				t.Errorf("TP%d CP%d EP%d: group %d is %s (ID %d), want %s",
					cfg.TP, cfg.CP, cfg.EP, n, g.Name, g.ID, want[n])
			}
		}
	}
}

// TestValidateRefusesMisnumberedGroups checks that a program whose
// groups are not numbered 0 to n-1 once each is refused: circuit tables
// index groups by number.
func TestValidateRefusesMisnumberedGroups(t *testing.T) {
	built := MustBuild(paperConfig(t, 1))
	for _, mutate := range []func(map[string]*collective.Group){
		func(gs map[string]*collective.Group) { // a number past the end
			for _, g := range gs {
				if g.ID == 0 {
					g.ID = len(gs)
				}
			}
		},
		func(gs map[string]*collective.Group) { // a number used twice
			for _, g := range gs {
				if g.ID == 1 {
					g.ID = 0
				}
			}
		},
	} {
		groups := make(map[string]*collective.Group, len(built.Groups))
		for name, g := range built.Groups {
			cp := *g
			groups[name] = &cp
		}
		mutate(groups)
		tasks := make([]*Task, len(built.Tasks))
		for i, task := range built.Tasks {
			cp := *task
			if cp.Group != nil {
				cp.Group = groups[cp.Group.Name]
			}
			tasks[i] = &cp
		}
		bad := &Program{Cluster: built.Cluster, Tasks: tasks, Groups: groups, Iterations: built.Iterations}
		if err := bad.Validate(); err == nil {
			t.Error("misnumbered groups accepted")
		}
	}
	// A collective whose group is a copy of the registered one is
	// refused too: tables hold the registered group.
	for _, task := range built.Tasks {
		if task.IsCollective() {
			cp := *task
			twin := *task.Group
			cp.Group = &twin
			tasks := append([]*Task(nil), built.Tasks...)
			tasks[task.ID] = &cp
			bad := &Program{Cluster: built.Cluster, Tasks: tasks, Groups: built.Groups, Iterations: built.Iterations}
			if err := bad.Validate(); err == nil {
				t.Error("collective on an unregistered copy of its group accepted")
			}
			break
		}
	}
}

func TestScaleOutTasksCarryRail(t *testing.T) {
	p := MustBuild(paperConfig(t, 1))
	for _, task := range p.Tasks {
		if !task.IsCollective() || task.ScaleUp {
			continue
		}
		want := p.Cluster.Rail(task.Ranks[0])
		if task.Rail != want {
			t.Errorf("task %s rail = %d, want %d", task.Label, task.Rail, want)
		}
	}
}

func TestCollectiveMix(t *testing.T) {
	p := MustBuild(paperConfig(t, 1))
	counts := map[parallelism.CollectiveKind]int{}
	for _, task := range p.Tasks {
		if task.IsCollective() {
			counts[task.CollKind]++
		}
	}
	// Per rail: AG blobs: s0 has 16+1, s1 has 16+1 -> 34; x4 rails = 136.
	if got := counts[parallelism.AllGather]; got != 136 {
		t.Errorf("AllGather tasks = %d, want 136", got)
	}
	if got := counts[parallelism.ReduceScatter]; got != 136 {
		t.Errorf("ReduceScatter tasks = %d, want 136", got)
	}
	// Send/Recv: per (d,t): fwd 12 + bwd 12 = 24; x2 shards x4 rails = 192.
	if got := counts[parallelism.SendRecv]; got != 192 {
		t.Errorf("SendRecv tasks = %d, want 192", got)
	}
	// Sync ARs: per rail: 2 pp-norm + 2 dp-norm + 2 loss = 6; x4 = 24.
	if got := counts[parallelism.AllReduce]; got != 24 {
		t.Errorf("AllReduce tasks = %d, want 24", got)
	}
}

func TestComputeTaskCount(t *testing.T) {
	p := MustBuild(paperConfig(t, 1))
	compute := 0
	for _, task := range p.Tasks {
		if task.Kind == Compute {
			compute++
		}
	}
	// Per GPU: 12 µb x 16 layers x (F+B) = 384, + 1 OPT = 385; x16 GPUs.
	want := 16 * (12*16*2 + 1)
	if compute != want {
		t.Errorf("compute tasks = %d, want %d", compute, want)
	}
}

func TestLazyStage1AllGather(t *testing.T) {
	// §3.1: "the first AllGather call for stage 1 only starts when it
	// receives the activation from stage 0" — stage-1 AG must depend
	// (transitively at depth 1) on the stage-0 microbatch-0 Send/Recv.
	p := MustBuild(paperConfig(t, 1))
	byID := p.Tasks
	for _, task := range p.Tasks {
		if task.IsCollective() && task.CollKind == parallelism.AllGather &&
			strings.Contains(task.Label, "s1") && strings.Contains(task.Label, "L0 ") {
			foundSR := false
			for _, d := range task.Deps {
				dep := byID[d]
				if dep.CollKind == parallelism.SendRecv &&
					strings.HasPrefix(dep.Label, "SRf s0>s1 ") && strings.HasSuffix(dep.Label, " mb0") {
					foundSR = true
				}
			}
			// L0 is not the first blob on stage 1 (no embed blob), so L0
			// chains on... stage 1's first blob IS L0 (embed only on s0).
			if !foundSR {
				t.Errorf("stage-1 AG %q does not wait for the first activation", task.Label)
			}
		}
	}
}

func TestVolumesMatchModel(t *testing.T) {
	cfg := paperConfig(t, 1)
	p := MustBuild(cfg)
	var agBytes, srBytes units.ByteSize
	for _, task := range p.Tasks {
		if !task.IsCollective() || task.Rail != 0 {
			continue
		}
		switch task.CollKind {
		case parallelism.AllGather:
			if strings.Contains(task.Label, "s0") {
				agBytes += task.Bytes
			}
		case parallelism.SendRecv:
			if srBytes == 0 {
				srBytes = task.Bytes
			}
		}
	}
	// Stage-0 AG total per rank ≈ (16 layers + embed)/TP at bf16:
	// (16·218M + 263M)·2/4 ≈ 1.87GB.
	wantAG := units.ByteSize((16*cfg.Model.LayerParams() + cfg.Model.EmbeddingParams()/2) * 2 / 4)
	if agBytes != wantAG {
		t.Errorf("stage-0 AG bytes = %v, want %v", agBytes, wantAG)
	}
	// Send/Recv payload: mbs·seq·hidden·2B / TP = 2·8192·4096·2/4 = 32MiB.
	if srBytes != 32*units.MB {
		t.Errorf("SR bytes = %v, want 32MB", srBytes)
	}
}

func TestSchedule1F1B(t *testing.T) {
	// PP=2, M=4. Stage 0: F0 | F1 B0 F2 B1 F3 B2 | B3.
	ops := schedule1F1B(0, 2, 4)
	want := []struct {
		fwd bool
		mb  int
	}{
		{true, 0}, {true, 1}, {false, 0}, {true, 2}, {false, 1}, {true, 3}, {false, 2}, {false, 3},
	}
	if len(ops) != len(want) {
		t.Fatalf("schedule len = %d, want %d", len(ops), len(want))
	}
	for i, w := range want {
		if ops[i].fwd != w.fwd || ops[i].mb != w.mb {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], w)
		}
	}
	// Stage PP-1 (s=1): no warm-up, strict alternation.
	ops = schedule1F1B(1, 2, 3)
	if ops[0].fwd != true || ops[1].fwd != false || ops[0].mb != 0 || ops[1].mb != 0 {
		t.Errorf("last stage schedule = %+v", ops[:2])
	}
	// Every microbatch appears exactly once forward, once backward.
	seen := map[[2]bool]int{}
	_ = seen
	fwdSeen := map[int]int{}
	bwdSeen := map[int]int{}
	for _, op := range schedule1F1B(1, 4, 7) {
		if op.fwd {
			fwdSeen[op.mb]++
		} else {
			bwdSeen[op.mb]++
		}
	}
	for mb := 0; mb < 7; mb++ {
		if fwdSeen[mb] != 1 || bwdSeen[mb] != 1 {
			t.Errorf("mb %d: fwd %d bwd %d", mb, fwdSeen[mb], bwdSeen[mb])
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := paperConfig(t, 1)
	mut := func(f func(*Config)) Config {
		c := base
		f(&c)
		return c
	}
	bad := []Config{
		mut(func(c *Config) { c.TP = 2 }),            // TP must fill scale-up
		mut(func(c *Config) { c.DP = 3 }),            // DP*PP != nodes
		mut(func(c *Config) { c.PP = 3 }),            // 32 layers % 3 != 0... also DP*PP
		mut(func(c *Config) { c.Microbatches = 1 }),  // fewer than PP
		mut(func(c *Config) { c.Cluster = nil }),     //
		mut(func(c *Config) { c.GPU = model.GPU{} }), // no throughput
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMultiIterationChaining(t *testing.T) {
	p1 := MustBuild(paperConfig(t, 1))
	p3 := MustBuild(paperConfig(t, 3))
	if len(p3.Tasks) != 3*len(p1.Tasks) {
		t.Errorf("3-iteration program has %d tasks, want %d", len(p3.Tasks), 3*len(p1.Tasks))
	}
	// Iteration 1 tasks must never depend on iteration 2 tasks (IDs are
	// topological, so checking iteration monotonicity along deps
	// suffices).
	for _, task := range p3.Tasks {
		for _, d := range task.Deps {
			if p3.Tasks[d].Iteration > task.Iteration {
				t.Fatalf("task %s (iter %d) depends on iter %d", task.Label, task.Iteration, p3.Tasks[d].Iteration)
			}
		}
	}
}

func TestScaleOutBytesPerIteration(t *testing.T) {
	p := MustBuild(paperConfig(t, 2))
	perIter := make(map[int]units.ByteSize)
	for _, task := range p.Tasks {
		if task.IsCollective() && !task.ScaleUp {
			perIter[task.Iteration] += task.Bytes
		}
	}
	if len(perIter) != 2 {
		t.Fatalf("scale-out traffic in %d iterations, want 2", len(perIter))
	}
	if perIter[0] != perIter[1] {
		t.Errorf("iterations differ in traffic: %v vs %v", perIter[0], perIter[1])
	}
	if perIter[0] <= 0 {
		t.Error("no scale-out traffic")
	}
}

func TestDPOnlyAndPPOnlyConfigs(t *testing.T) {
	cl := topo.MustNew(topo.Config{NumNodes: 4, GPUsPerNode: 4})
	// DP-only (PP=1): no Send/Recv, no pp groups.
	pDP := MustBuild(Config{
		Model: model.Llama3_8B, GPU: model.A100, Cluster: cl,
		TP: 4, DP: 4, PP: 1, Microbatches: 2, MicrobatchSize: 2,
	})
	for _, task := range pDP.Tasks {
		if task.IsCollective() && task.CollKind == parallelism.SendRecv {
			t.Fatal("DP-only program has Send/Recv")
		}
		if task.IsCollective() && task.Axis == parallelism.PP {
			t.Fatal("DP-only program has PP collectives")
		}
	}
	// PP-only (DP=1): no AG/RS.
	pPP := MustBuild(Config{
		Model: model.Llama3_8B, GPU: model.A100, Cluster: cl,
		TP: 4, DP: 1, PP: 4, Microbatches: 8, MicrobatchSize: 2,
	})
	for _, task := range pPP.Tasks {
		if task.IsCollective() &&
			(task.CollKind == parallelism.AllGather || task.CollKind == parallelism.ReduceScatter) {
			t.Fatal("PP-only program has FSDP collectives")
		}
	}
}
