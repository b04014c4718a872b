package workload

import (
	"fmt"
	"strconv"
	"strings"

	"photonrail/internal/collective"
	"photonrail/internal/model"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/trace"
	"photonrail/internal/units"
)

// Config parameterizes the iteration-program builder. It mirrors the
// paper's §3.1 setup: TP occupies the scale-up domain; FSDP, PP, and the
// optional CP/EP axes ride the rails; the pipeline schedule is 1F1B.
//
// Adding CP or EP answers the paper's §3 "provocative question" — 4D/5D
// parallelism on photonic rails: each extra axis would need two more NIC
// ports under static circuits (constraint C2), but time-multiplexed
// reconfiguration serves any number of axes with one ring's worth of
// ports.
type Config struct {
	// Model is the transformer to train.
	Model model.Spec
	// GPU is the compute model.
	GPU model.GPU
	// Cluster is the topology. TP must equal Cluster.GPUsPerNode and
	// DP·CP·EP·PP must equal Cluster.NumNodes.
	Cluster *topo.Cluster
	// TP, DP, PP are the core parallel degrees (DP is the FSDP degree).
	TP, DP, PP int
	// CP is the context-parallel degree (1 = off). CP adds a per-layer
	// forward AllGather and backward ReduceScatter along the CP axis
	// (Table 2).
	CP int
	// EP is the expert-parallel degree (1 = off; requires an MoE model).
	// EP adds two AllToAlls per layer per pass (dispatch and combine).
	EP int
	// Microbatches is the per-iteration microbatch count.
	Microbatches int
	// MicrobatchSize is the sequences per microbatch (the paper uses 2).
	MicrobatchSize int
	// Iterations is how many iterations to build (Fig. 4 uses 10).
	Iterations int
	// OptimizerTime is the optimizer-step compute time (default 10 ms).
	OptimizerTime units.Duration
	// SyncARBytes is the payload of the optimizer-step synchronization
	// AllReduces (default 2 KB, the paper's "<1MB" class).
	SyncARBytes units.ByteSize
	// EagerRS issues each layer's ReduceScatter as soon as its last
	// backward completes, letting RS overlap remaining pipeline traffic.
	// The default (false) defers the RS burst until the pipeline drains,
	// which is the behaviour of the paper's measured TorchTitan trace:
	// gradient reduction fires at the end of the pipeline schedule,
	// producing the large (≈1 s) idle window before the ReduceScatter
	// burst that §3.1 reports.
	EagerRS bool
	// JitterFrac adds deterministic per-task compute-time jitter of up
	// to ±JitterFrac (e.g. 0.03 = ±3%), hashed from the task label, to
	// emulate real kernel-duration variance. Zero (the default) keeps
	// every rank's compute exactly symmetric.
	JitterFrac float64
	// Schedule selects the pipeline schedule (default 1F1B).
	Schedule Schedule
}

func (c *Config) applyDefaults() {
	if c.CP == 0 {
		c.CP = 1
	}
	if c.EP == 0 {
		c.EP = 1
	}
	if c.OptimizerTime == 0 {
		c.OptimizerTime = 10 * units.Millisecond
	}
	if c.SyncARBytes == 0 {
		c.SyncARBytes = 2 * units.KB
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.MicrobatchSize == 0 {
		c.MicrobatchSize = 2
	}
}

// Validate checks the configuration against the cluster shape.
func (c *Config) Validate() error {
	if c.Cluster == nil {
		return fmt.Errorf("workload: nil cluster")
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.GPU.PeakFLOPS <= 0 || c.GPU.MFU <= 0 {
		return fmt.Errorf("workload: GPU %q has no throughput", c.GPU.Name)
	}
	if c.TP <= 0 || c.DP <= 0 || c.PP <= 0 || c.CP <= 0 || c.EP <= 0 {
		return fmt.Errorf("workload: degrees TP=%d DP=%d CP=%d EP=%d PP=%d", c.TP, c.DP, c.CP, c.EP, c.PP)
	}
	if c.TP != c.Cluster.GPUsPerNode {
		return fmt.Errorf("workload: TP=%d must fill the scale-up domain (%d GPUs/node)", c.TP, c.Cluster.GPUsPerNode)
	}
	if c.DP*c.CP*c.EP*c.PP != c.Cluster.NumNodes {
		return fmt.Errorf("workload: DP·CP·EP·PP = %d does not match %d nodes",
			c.DP*c.CP*c.EP*c.PP, c.Cluster.NumNodes)
	}
	if c.EP > 1 && !c.Model.IsMoE() {
		return fmt.Errorf("workload: EP=%d requires a mixture-of-experts model", c.EP)
	}
	if c.EP > 1 && c.EP > c.Model.Experts {
		return fmt.Errorf("workload: EP=%d exceeds %d experts", c.EP, c.Model.Experts)
	}
	if c.Model.Layers%c.PP != 0 {
		return fmt.Errorf("workload: %d layers not divisible by PP=%d", c.Model.Layers, c.PP)
	}
	if c.Microbatches <= 0 {
		return fmt.Errorf("workload: %d microbatches", c.Microbatches)
	}
	if c.Microbatches < c.PP {
		return fmt.Errorf("workload: %d microbatches cannot fill a %d-stage pipeline", c.Microbatches, c.PP)
	}
	return nil
}

// bt is a task under construction with symbolic (pointer) dependencies;
// Build resolves them into TaskIDs by topological order.
type bt struct {
	task *Task
	deps []*bt
	idx  int // creation index for deterministic ordering
	// depsArr backs deps inline: nearly every task has a handful of
	// dependencies, so the common case allocates nothing.
	depsArr [4]*bt
}

// shard identifies one non-TP, non-PP coordinate: the data (d), context
// (c), and expert (e) indices. Every (stage, shard) pair occupies one
// scale-up domain, and every rank position (stage, shard, TP index) one
// GPU: b.gpu numbers them, and the builder's per-rank state is indexed
// by that number.
type shard struct{ d, c, e int }

type builder struct {
	cfg     Config
	tasks   []*bt
	groups  map[string]*collective.Group
	cluster *topo.Cluster
	// blobs[s] is stage s's parameter blobs, the same every iteration.
	blobs [][]blob

	// Arena blocks for bt/Task nodes, the program's label arena and a
	// scratch buffer for label formatting: program compilation is the
	// pipeline's Build stage and its per-node allocations dominate a
	// cold grid, so nodes and labels come from chunked arenas instead of
	// one heap object each.
	btArena   []bt
	taskArena []Task
	labels    strings.Builder
	lbuf      []byte

	// Per-layer durations (TP collectives folded in).
	fwdLayer, bwdLayer units.Duration

	// Per-op payloads.
	agBytes, rsBytes units.ByteSize // FSDP, per transformer layer
	embedAGBytes     units.ByteSize // per embedding blob
	embedRSBytes     units.ByteSize
	srBytes          units.ByteSize // pipeline activation transfer
	cpBytes          units.ByteSize // CP per-layer KV gather
	epBytes          units.ByteSize // EP per-layer AllToAll buffer
}

// Build generates the multi-iteration program.
func Build(cfg Config) (*Program, error) {
	cfg.applyDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b := &builder{cfg: cfg, cluster: cfg.Cluster, groups: make(map[string]*collective.Group)}
	b.computeDurations()
	b.computeBytes()
	b.makeGroups()
	for s := 0; s < cfg.PP; s++ {
		b.blobs = append(b.blobs, b.stageBlobs(s))
	}

	// prevEnd[gpu] is the final task of the previous iteration for each
	// rank position.
	prevEnd := make([]*bt, cfg.Cluster.NumGPUs())
	for it := 0; it < cfg.Iterations; it++ {
		b.buildIteration(it, prevEnd)
	}

	tasks, err := b.finalize()
	if err != nil {
		return nil, err
	}
	p := &Program{
		Cluster:    cfg.Cluster,
		Tasks:      tasks,
		Groups:     b.groups,
		Iterations: cfg.Iterations,
	}
	// The verdict is recorded beside the index, so the first simulation
	// of the program does not validate it again.
	if _, err := p.ValidIndex(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustBuild is Build but panics on error.
func MustBuild(cfg Config) *Program {
	p, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// shards enumerates every (d, c, e) combination, d varying fastest.
func (b *builder) shards() []shard {
	out := make([]shard, 0, b.cfg.DP*b.cfg.CP*b.cfg.EP)
	for e := 0; e < b.cfg.EP; e++ {
		for c := 0; c < b.cfg.CP; c++ {
			for d := 0; d < b.cfg.DP; d++ {
				out = append(out, shard{d: d, c: c, e: e})
			}
		}
	}
	return out
}

// node returns the scale-up domain of (stage, shard): shards are laid
// out d-major inside a stage block, stages outermost.
func (b *builder) node(s int, sh shard) topo.NodeID {
	cfg := b.cfg
	shardIdx := sh.d + cfg.DP*(sh.c+cfg.CP*sh.e)
	return topo.NodeID(shardIdx + cfg.DP*cfg.CP*cfg.EP*s)
}

// gpu returns the GPU of (stage, shard, tp rank).
func (b *builder) gpu(s int, sh shard, t int) topo.GPUID {
	return b.cluster.GPUAt(b.node(s, sh), t)
}

func (b *builder) computeDurations() {
	cfg := b.cfg
	mbs := cfg.MicrobatchSize
	// CP splits the sequence: per-rank layer FLOPs divide by CP
	// (Table 2's seq/cp compute reduction).
	fwdFLOPs := cfg.Model.ForwardFLOPsPerLayer(mbs) / int64(cfg.TP) / int64(cfg.CP)
	bwdFLOPs := cfg.Model.BackwardFLOPsPerLayer(mbs) / int64(cfg.TP) / int64(cfg.CP)
	b.fwdLayer = cfg.GPU.ComputeTime(fwdFLOPs)
	b.bwdLayer = cfg.GPU.ComputeTime(bwdFLOPs)
	if cfg.TP > 1 {
		// Two AllReduces per layer per pass over the scale-up fabric
		// (Megatron-style), folded into the layer time.
		act := units.ByteSize(int64(cfg.Model.ActivationBytes(mbs)) / int64(cfg.CP))
		tpTime, err := collective.Time(collective.AllReduce, collective.Ring, cfg.TP,
			act, cfg.Cluster.ScaleUpBandwidth, cfg.Cluster.ScaleUpLatency)
		if err != nil {
			panic(err) // ring AR always has a formula
		}
		b.fwdLayer += 2 * tpTime
		b.bwdLayer += 2 * tpTime
	}
}

func (b *builder) computeBytes() {
	cfg := b.cfg
	tp := int64(cfg.TP)
	b.agBytes = units.ByteSize(int64(cfg.Model.LayerParamBytes()) / tp)
	b.rsBytes = units.ByteSize(int64(cfg.Model.LayerGradBytes()) / tp)
	embedParams := cfg.Model.EmbeddingParams() / 2 // one blob per end
	b.embedAGBytes = units.ByteSize(embedParams * int64(cfg.Model.BytesPerParam) / tp)
	b.embedRSBytes = units.ByteSize(embedParams * int64(cfg.Model.BytesPerGrad) / tp)
	act := int64(cfg.Model.ActivationBytes(cfg.MicrobatchSize))
	b.srBytes = units.ByteSize(act / tp / int64(cfg.CP))
	if cfg.CP > 1 {
		// The CP AllGather collects the K and V projections of every
		// context chunk: the KV fraction of the activation volume.
		kvFrac := 2 * float64(cfg.Model.KVHeads) / float64(cfg.Model.Heads)
		b.cpBytes = units.ByteSize(float64(act) * kvFrac / float64(tp))
	}
	if cfg.EP > 1 {
		// Each AllToAll moves the tokens routed to remote experts:
		// TopK-amplified activations.
		b.epBytes = units.ByteSize(act * int64(cfg.Model.TopK) / tp / int64(cfg.EP))
	}
}

func (b *builder) makeGroups() {
	cfg := b.cfg
	// Groups are numbered densely in the order they are made; the
	// program's circuit tables index their entries by the number.
	reg := func(name string, axis parallelism.Axis, ranks []topo.GPUID) {
		b.groups[name] = &collective.Group{ID: len(b.groups), Name: name, Axis: axis, Ranks: ranks}
	}
	for t := 0; t < cfg.TP; t++ {
		if cfg.PP > 1 {
			for _, sh := range b.shards() {
				ranks := make([]topo.GPUID, cfg.PP)
				for s := 0; s < cfg.PP; s++ {
					ranks[s] = b.gpu(s, sh, t)
				}
				reg(string(b.ppGroupName(sh, t)), parallelism.PP, ranks)
			}
		}
		for s := 0; s < cfg.PP; s++ {
			if cfg.DP > 1 {
				for e := 0; e < cfg.EP; e++ {
					for c := 0; c < cfg.CP; c++ {
						ranks := make([]topo.GPUID, cfg.DP)
						for d := 0; d < cfg.DP; d++ {
							ranks[d] = b.gpu(s, shard{d, c, e}, t)
						}
						reg(string(b.fsdpGroupName(s, c, e, t)), parallelism.FSDP, ranks)
					}
				}
			}
			if cfg.CP > 1 {
				for e := 0; e < cfg.EP; e++ {
					for d := 0; d < cfg.DP; d++ {
						ranks := make([]topo.GPUID, cfg.CP)
						for c := 0; c < cfg.CP; c++ {
							ranks[c] = b.gpu(s, shard{d, c, e}, t)
						}
						reg(string(b.cpGroupName(s, d, e, t)), parallelism.CP, ranks)
					}
				}
			}
			if cfg.EP > 1 {
				for c := 0; c < cfg.CP; c++ {
					for d := 0; d < cfg.DP; d++ {
						ranks := make([]topo.GPUID, cfg.EP)
						for e := 0; e < cfg.EP; e++ {
							ranks[e] = b.gpu(s, shard{d, c, e}, t)
						}
						reg(string(b.epGroupName(s, d, c, t)), parallelism.EP, ranks)
					}
				}
			}
		}
	}
}

// The group-name formatters write into the label scratch buffer, valid
// until the next format. A lookup indexes b.groups with the bytes
// converted in the index expression, which allocates no string.
func (b *builder) ppGroupName(sh shard, t int) []byte {
	return b.appendd("pp.d%d.c%d.e%d.r%d", sh.d, sh.c, sh.e, t)
}

func (b *builder) fsdpGroupName(s, c, e, t int) []byte {
	return b.appendd("fsdp.s%d.c%d.e%d.r%d", s, c, e, t)
}

func (b *builder) cpGroupName(s, d, e, t int) []byte {
	return b.appendd("cp.s%d.d%d.e%d.r%d", s, d, e, t)
}

func (b *builder) epGroupName(s, d, c, t int) []byte {
	return b.appendd("ep.s%d.d%d.c%d.r%d", s, d, c, t)
}

// arenaChunk sizes the bt/Task arena blocks.
const arenaChunk = 512

func (b *builder) newBT() *bt {
	if len(b.btArena) == 0 {
		b.btArena = make([]bt, arenaChunk)
	}
	n := &b.btArena[0]
	b.btArena = b.btArena[1:]
	return n
}

// newTask returns an arena-backed zero Task.
func (b *builder) newTask() *Task {
	if len(b.taskArena) == 0 {
		b.taskArena = make([]Task, arenaChunk)
	}
	t := &b.taskArena[0]
	b.taskArena = b.taskArena[1:]
	return t
}

// labelChunk sizes the label arena's chunks. A 2-microbatch 3D program
// has about 30 KB of labels: eight chunks hold no more bytes than its
// labels took as separate strings, rounded up to their size classes.
const labelChunk = 4096

// fmtd is the builder's label formatter: fmt.Sprintf restricted to %d
// verbs, returning the label as a substring of the label arena. Labels
// are the single biggest formatting cost of compilation, and every one
// of them is integers spliced into a literal.
func (b *builder) fmtd(format string, args ...int) string {
	return b.keep(b.appendd(format, args...))
}

// keep copies a formatted label into the program's label arena and
// returns it as a substring of the arena. The arena is a chunked
// strings.Builder: a chunk is written only below its capacity, so the
// strings already cut from it never move or change, and a full chunk
// stays alive as long as any task's label points into it.
func (b *builder) keep(label []byte) string {
	if b.labels.Cap()-b.labels.Len() < len(label) {
		b.labels.Reset()
		b.labels.Grow(max(labelChunk, len(label)))
	}
	start := b.labels.Len()
	b.labels.Write(label)
	return b.labels.String()[start:]
}

// appendd formats like fmtd into the scratch buffer and returns the
// buffer, valid until the next format.
func (b *builder) appendd(format string, args ...int) []byte {
	buf := b.lbuf[:0]
	ai := 0
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c == '%' && i+1 < len(format) && format[i+1] == 'd' {
			buf = strconv.AppendInt(buf, int64(args[ai]), 10)
			ai++
			i++
			continue
		}
		buf = append(buf, c)
	}
	b.lbuf = buf
	return buf
}

// fsdpLabel formats the per-blob FSDP collective labels
// ("AG <blob> s# c# e# r#"), the only hot label shape with a string
// argument, which fmtd cannot splice.
func (b *builder) fsdpLabel(op, blob string, s, c, e, r int) string {
	buf := b.lbuf[:0]
	buf = append(buf, op...)
	buf = append(buf, ' ')
	buf = append(buf, blob...)
	buf = append(buf, " s"...)
	buf = strconv.AppendInt(buf, int64(s), 10)
	buf = append(buf, " c"...)
	buf = strconv.AppendInt(buf, int64(c), 10)
	buf = append(buf, " e"...)
	buf = strconv.AppendInt(buf, int64(e), 10)
	buf = append(buf, " r"...)
	buf = strconv.AppendInt(buf, int64(r), 10)
	b.lbuf = buf
	return b.keep(buf)
}

func (b *builder) add(t *Task, deps ...*bt) *bt {
	n := b.newBT()
	n.task = t
	n.idx = len(b.tasks)
	n.deps = n.depsArr[:0]
	for _, d := range deps {
		if d != nil {
			n.deps = append(n.deps, d)
		}
	}
	b.tasks = append(b.tasks, n)
	return n
}

func (b *builder) addDeps(n *bt, deps ...*bt) {
	for _, d := range deps {
		if d != nil {
			n.deps = append(n.deps, d)
		}
	}
}

// jitter derates or inflates a compute duration by a deterministic
// per-label factor within ±JitterFrac, emulating kernel-time variance
// without sacrificing reproducibility. The factor comes from the
// label's FNV-64a hash, computed inline: hash/fnv's hasher and the
// label's byte copy would cost two allocations per compute task.
func (b *builder) jitter(label string, d units.Duration) units.Duration {
	if b.cfg.JitterFrac <= 0 {
		return d
	}
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211 // FNV-64 prime
	}
	// Map the hash to [-1, 1).
	u := float64(h%2048)/1024 - 1
	return units.Duration(float64(d) * (1 + b.cfg.JitterFrac*u))
}

// Schedule selects the pipeline schedule.
type Schedule int

// The supported pipeline schedules.
const (
	// OneFOneB is the 1F1B schedule of the paper's trace (default).
	OneFOneB Schedule = iota
	// GPipe runs all forwards, then all backwards: fewer parallelism
	// interleavings (fewer windows) but a larger pipeline bubble and
	// activation footprint.
	GPipe
)

// String names the schedule.
func (s Schedule) String() string {
	switch s {
	case OneFOneB:
		return "1F1B"
	case GPipe:
		return "GPipe"
	default:
		return fmt.Sprintf("Schedule(%d)", int(s))
	}
}

// pipeOp is one slot of a pipeline schedule.
type pipeOp struct {
	fwd   bool
	mb    int
	phase trace.PipePhase
}

// schedule1F1B returns stage s's op order under the one-forward-
// one-backward schedule: warm-up forwards, a steady phase alternating
// F/B, and cool-down backwards.
func schedule1F1B(s, pp, m int) []pipeOp {
	w := pp - 1 - s
	if w > m {
		w = m
	}
	var ops []pipeOp
	for i := 0; i < w; i++ {
		ops = append(ops, pipeOp{fwd: true, mb: i, phase: trace.WarmUp})
	}
	for i := 0; i < m-w; i++ {
		ops = append(ops, pipeOp{fwd: true, mb: w + i, phase: trace.Steady})
		ops = append(ops, pipeOp{fwd: false, mb: i, phase: trace.Steady})
	}
	for i := m - w; i < m; i++ {
		ops = append(ops, pipeOp{fwd: false, mb: i, phase: trace.CoolDown})
	}
	return ops
}

// scheduleGPipe returns stage s's op order under GPipe: every forward,
// then every backward.
func scheduleGPipe(m int) []pipeOp {
	var ops []pipeOp
	for i := 0; i < m; i++ {
		ops = append(ops, pipeOp{fwd: true, mb: i, phase: trace.WarmUp})
	}
	for i := m - 1; i >= 0; i-- {
		ops = append(ops, pipeOp{fwd: false, mb: i, phase: trace.CoolDown})
	}
	return ops
}

// scheduleFor dispatches on the configured schedule.
func (b *builder) scheduleFor(s int) []pipeOp {
	if b.cfg.Schedule == GPipe {
		return scheduleGPipe(b.cfg.Microbatches)
	}
	return schedule1F1B(s, b.cfg.PP, b.cfg.Microbatches)
}

// blob describes one parameter blob in a stage's AllGather/ReduceScatter
// chain: the transformer layers plus the embedding/head blobs at the
// pipeline ends.
type blob struct {
	label   string
	agBytes units.ByteSize
	rsBytes units.ByteSize
	// layer is the stage-local transformer layer this blob gates, or -1
	// for embedding blobs (gating the stage's first layer instead).
	layer int
}

func (b *builder) stageBlobs(s int) []blob {
	layers := b.cfg.Model.Layers / b.cfg.PP
	var blobs []blob
	if s == 0 {
		blobs = append(blobs, blob{label: "embed", agBytes: b.embedAGBytes, rsBytes: b.embedRSBytes, layer: -1})
	}
	for l := 0; l < layers; l++ {
		blobs = append(blobs, blob{label: b.fmtd("L%d", l), agBytes: b.agBytes, rsBytes: b.rsBytes, layer: l})
	}
	if s == b.cfg.PP-1 {
		blobs = append(blobs, blob{label: "head", agBytes: b.embedAGBytes, rsBytes: b.embedRSBytes, layer: -1})
	}
	return blobs
}

// collTask is a helper filling the common collective-task fields.
func (b *builder) collTask(label string, kind parallelism.CollectiveKind, axis parallelism.Axis,
	g *collective.Group, ranks []topo.GPUID, bytes units.ByteSize, rail int, it int, phase trace.PipePhase) *Task {
	t := b.newTask()
	*t = Task{
		Kind:      Collective,
		Label:     label,
		CollKind:  kind,
		Axis:      axis,
		Group:     g,
		Ranks:     ranks,
		Bytes:     bytes,
		Rail:      topo.RailID(rail),
		Iteration: it,
		Phase:     phase,
	}
	return t
}

// buildIteration emits one training iteration. prevEnd[gpu] carries
// each rank's final task of the previous iteration and is updated in
// place. Every table below is indexed by a rank position's GPU number
// (b.gpu), times its microbatch, blob or layer.
func (b *builder) buildIteration(it int, prevEnd []*bt) {
	cfg := b.cfg
	layers := cfg.Model.Layers / cfg.PP
	mbs := cfg.Microbatches
	ngpu := cfg.Cluster.NumGPUs()
	shards := b.shards()

	// Pre-create pipeline Send/Recv tasks so both endpoints can
	// reference them. srF[gpu*mbs+m] carries microbatch m's activations
	// from the GPU's stage s to s+1; srB[gpu*mbs+m] its gradients from s
	// to s-1. Their {src, dst} rank pairs are carved from one buffer.
	var srF, srB []*bt
	if cfg.PP > 1 {
		srF = make([]*bt, ngpu*mbs)
		srB = make([]*bt, ngpu*mbs)
		pairs := make([]topo.GPUID, 0, 2*2*(cfg.PP-1)*len(shards)*cfg.TP*mbs)
		pair := func(src, dst topo.GPUID) []topo.GPUID {
			pairs = append(pairs, src, dst)
			return pairs[len(pairs)-2 : len(pairs) : len(pairs)]
		}
		for s := 0; s < cfg.PP; s++ {
			for _, sh := range shards {
				for t := 0; t < cfg.TP; t++ {
					g := b.gpu(s, sh, t)
					for m := 0; m < cfg.Microbatches; m++ {
						if s < cfg.PP-1 {
							srF[int(g)*mbs+m] = b.add(b.collTask(
								b.fmtd("SRf s%d>s%d d%d c%d e%d r%d mb%d", s, s+1, sh.d, sh.c, sh.e, t, m),
								parallelism.SendRecv, parallelism.PP, b.groups[string(b.ppGroupName(sh, t))],
								pair(g, b.gpu(s+1, sh, t)),
								b.srBytes, t, it, trace.Steady))
						}
						if s > 0 {
							srB[int(g)*mbs+m] = b.add(b.collTask(
								b.fmtd("SRb s%d>s%d d%d c%d e%d r%d mb%d", s, s-1, sh.d, sh.c, sh.e, t, m),
								parallelism.SendRecv, parallelism.PP, b.groups[string(b.ppGroupName(sh, t))],
								pair(g, b.gpu(s-1, sh, t)),
								b.srBytes, t, it, trace.Steady))
						}
					}
				}
			}
		}
	}

	// FSDP AllGather chains, one per (stage, c, e, rail). Lazy DTensor
	// semantics: stage s > 0 starts gathering only once the first
	// activation arrives (dep on srF of microbatch 0). Every member of
	// the FSDP group finds the group's chains at its own GPU:
	// agTask[gpu*layers+l] is the AllGather of layer l's blob, and
	// rsTask[gpu*nblob+bi] the ReduceScatter of blob bi.
	nblob := layers + 2
	var agTask, rsTask []*bt
	if cfg.DP > 1 {
		agTask = make([]*bt, ngpu*layers)
		rsTask = make([]*bt, ngpu*nblob)
		for s := 0; s < cfg.PP; s++ {
			blobs := b.blobs[s]
			for e := 0; e < cfg.EP; e++ {
				for c := 0; c < cfg.CP; c++ {
					for t := 0; t < cfg.TP; t++ {
						g := b.groups[string(b.fsdpGroupName(s, c, e, t))]
						var prev *bt
						for bi, bl := range blobs {
							n := b.add(b.collTask(
								b.fsdpLabel("AG", bl.label, s, c, e, t),
								parallelism.AllGather, parallelism.FSDP, g,
								g.Ranks, bl.agBytes, t, it, trace.WarmUp), prev)
							if bi == 0 {
								for d := 0; d < cfg.DP; d++ {
									sh := shard{d, c, e}
									// Every shard must have finished the
									// previous iteration's optimizer step.
									b.addDeps(n, prevEnd[b.gpu(s, sh, t)])
									if s > 0 && cfg.PP > 1 {
										// Lazy DTensor: gathering starts only
										// when the first activation arrives
										// (§3.1).
										b.addDeps(n, srF[int(b.gpu(s-1, sh, t))*mbs])
									}
								}
							}
							if bl.layer >= 0 {
								for _, r := range g.Ranks {
									agTask[int(r)*layers+bl.layer] = n
								}
							}
							prev = n
						}
						// ReduceScatter chain issues top-down during the
						// last microbatch's backward pass.
						var prevRS *bt
						for bi := len(blobs) - 1; bi >= 0; bi-- {
							bl := blobs[bi]
							n := b.add(b.collTask(
								b.fsdpLabel("RS", bl.label, s, c, e, t),
								parallelism.ReduceScatter, parallelism.FSDP, g,
								g.Ranks, bl.rsBytes, t, it, trace.CoolDown), prevRS)
							for _, r := range g.Ranks {
								rsTask[int(r)*nblob+bi] = n
							}
							prevRS = n
						}
					}
				}
			}
		}
	}

	// Per-rank compute following the 1F1B schedule, with per-layer CP
	// gathers and EP AllToAlls woven in. lastBwd[gpu*layers+l] is the
	// rank's latest backward of layer l.
	var lastBwd []*bt
	if cfg.DP > 1 {
		lastBwd = make([]*bt, ngpu*layers)
	}

	// CP and EP collectives are shared by their whole group: the first
	// member to reach the op creates it, later members attach their
	// dependency chains (the slowest-member barrier). A group's op for
	// (microbatch, layer) sits in its table at the slot of the group's
	// first member: the GPU with c = 0 for CP, e = 0 for EP.
	var cpAG, cpRS, epDisp, epComb, epCombB, epDispB []*bt
	if cfg.CP > 1 {
		cpAG = make([]*bt, ngpu*mbs*layers)
		cpRS = make([]*bt, ngpu*mbs*layers)
	}
	if cfg.EP > 1 {
		epDisp = make([]*bt, ngpu*mbs*layers)
		epComb = make([]*bt, ngpu*mbs*layers)
		epCombB = make([]*bt, ngpu*mbs*layers)
		epDispB = make([]*bt, ngpu*mbs*layers)
	}
	getShared := func(table []*bt, slot int, make func() *Task, deps ...*bt) *bt {
		n := table[slot]
		if n == nil {
			n = b.add(make())
			table[slot] = n
		}
		b.addDeps(n, deps...)
		return n
	}
	for s := 0; s < cfg.PP; s++ {
		sched := b.scheduleFor(s)
		for _, sh := range shards {
			for t := 0; t < cfg.TP; t++ {
				g := b.gpu(s, sh, t)
				cpLead := int(b.gpu(s, shard{sh.d, 0, sh.e}, t)) * mbs * layers
				epLead := int(b.gpu(s, shard{sh.d, sh.c, 0}, t)) * mbs * layers
				chain := prevEnd[g]
				for _, op := range sched {
					if op.fwd {
						for l := 0; l < layers; l++ {
							slot := op.mb*layers + l
							// Room for the AllGather and Send/Recv deps
							// keeps the slice on the stack.
							deps := append(make([]*bt, 0, 3), chain)
							if cfg.DP > 1 && op.mb == 0 {
								deps = append(deps, agTask[int(g)*layers+l])
							}
							if l == 0 && s > 0 {
								deps = append(deps, srF[int(b.gpu(s-1, sh, t))*mbs+op.mb])
							}
							// CP: gather the other context chunks' K/V
							// before attention (fwd AG per layer). One op
							// per CP group, gated on every member.
							if cfg.CP > 1 {
								cp := getShared(cpAG, cpLead+slot, func() *Task {
									g := b.groups[string(b.cpGroupName(s, sh.d, sh.e, t))]
									return b.collTask(
										b.fmtd("CPAG s%d d%d e%d r%d mb%d L%d", s, sh.d, sh.e, t, op.mb, l),
										parallelism.AllGather, parallelism.CP, g,
										g.Ranks, b.cpBytes, t, it, op.phase)
								}, deps...)
								deps = []*bt{cp}
							}
							// EP: dispatch tokens to experts before the
							// MLP (AllToAll per layer).
							if cfg.EP > 1 {
								disp := getShared(epDisp, epLead+slot, func() *Task {
									g := b.groups[string(b.epGroupName(s, sh.d, sh.c, t))]
									return b.collTask(
										b.fmtd("EPA2A-d s%d d%d c%d r%d mb%d L%d", s, sh.d, sh.c, t, op.mb, l),
										parallelism.AllToAll, parallelism.EP, g,
										g.Ranks, b.epBytes, t, it, op.phase)
								}, deps...)
								deps = []*bt{disp}
							}
							label := b.fmtd("F s%d d%d c%d e%d r%d mb%d L%d", s, sh.d, sh.c, sh.e, t, op.mb, l)
							ct := b.newTask()
							*ct = Task{
								Kind:      Compute,
								Label:     label,
								GPU:       g,
								Duration:  b.jitter(label, b.fwdLayer),
								Iteration: it,
								Phase:     op.phase,
							}
							chain = b.add(ct, deps...)
							// EP: combine expert outputs after the MLP.
							if cfg.EP > 1 {
								chain = getShared(epComb, epLead+slot, func() *Task {
									g := b.groups[string(b.epGroupName(s, sh.d, sh.c, t))]
									return b.collTask(
										b.fmtd("EPA2A-c s%d d%d c%d r%d mb%d L%d", s, sh.d, sh.c, t, op.mb, l),
										parallelism.AllToAll, parallelism.EP, g,
										g.Ranks, b.epBytes, t, it, op.phase)
								}, chain)
							}
						}
						if s < cfg.PP-1 {
							sr := srF[int(g)*mbs+op.mb]
							b.addDeps(sr, chain)
							sr.task.Phase = op.phase
						}
					} else {
						for l := layers - 1; l >= 0; l-- {
							slot := op.mb*layers + l
							deps := append(make([]*bt, 0, 2), chain)
							if l == layers-1 && s < cfg.PP-1 {
								deps = append(deps, srB[int(b.gpu(s+1, sh, t))*mbs+op.mb])
							}
							// EP backward: combine gradients in, dispatch
							// gradients out.
							if cfg.EP > 1 {
								comb := getShared(epCombB, epLead+slot, func() *Task {
									g := b.groups[string(b.epGroupName(s, sh.d, sh.c, t))]
									return b.collTask(
										b.fmtd("EPA2A-cb s%d d%d c%d r%d mb%d L%d", s, sh.d, sh.c, t, op.mb, l),
										parallelism.AllToAll, parallelism.EP, g,
										g.Ranks, b.epBytes, t, it, op.phase)
								}, deps...)
								deps = []*bt{comb}
							}
							label := b.fmtd("B s%d d%d c%d e%d r%d mb%d L%d", s, sh.d, sh.c, sh.e, t, op.mb, l)
							ct := b.newTask()
							*ct = Task{
								Kind:      Compute,
								Label:     label,
								GPU:       g,
								Duration:  b.jitter(label, b.bwdLayer),
								Iteration: it,
								Phase:     op.phase,
							}
							chain = b.add(ct, deps...)
							if cfg.EP > 1 {
								chain = getShared(epDispB, epLead+slot, func() *Task {
									g := b.groups[string(b.epGroupName(s, sh.d, sh.c, t))]
									return b.collTask(
										b.fmtd("EPA2A-db s%d d%d c%d r%d mb%d L%d", s, sh.d, sh.c, t, op.mb, l),
										parallelism.AllToAll, parallelism.EP, g,
										g.Ranks, b.epBytes, t, it, op.phase)
								}, chain)
							}
							// CP backward: reduce-scatter the context
							// gradients (bwd RS per layer).
							if cfg.CP > 1 {
								chain = getShared(cpRS, cpLead+slot, func() *Task {
									g := b.groups[string(b.cpGroupName(s, sh.d, sh.e, t))]
									return b.collTask(
										b.fmtd("CPRS s%d d%d e%d r%d mb%d L%d", s, sh.d, sh.e, t, op.mb, l),
										parallelism.ReduceScatter, parallelism.CP, g,
										g.Ranks, b.cpBytes, t, it, op.phase)
								}, chain)
							}
							if cfg.DP > 1 {
								// Overwritten by every backward; the final
								// value is the schedule's last backward of
								// this layer (grad accumulation complete).
								lastBwd[int(g)*layers+l] = chain
							}
						}
						if s > 0 {
							sr := srB[int(g)*mbs+op.mb]
							b.addDeps(sr, chain)
							sr.task.Phase = op.phase
						}
					}
				}
				prevEnd[g] = chain
			}
		}
	}

	// Wire ReduceScatter dependencies: each blob's RS waits for every
	// shard's backward of that blob in the last microbatch (embedding
	// blobs wait on the adjacent layer's backward, which the chain
	// covers). Unless EagerRS is set, the whole burst additionally waits
	// for the pipeline to drain on its rail, matching the TorchTitan
	// trace where gradient reduction fires at schedule end.
	if cfg.DP > 1 {
		for s := 0; s < cfg.PP; s++ {
			blobs := b.blobs[s]
			for e := 0; e < cfg.EP; e++ {
				for c := 0; c < cfg.CP; c++ {
					for t := 0; t < cfg.TP; t++ {
						lead := int(b.gpu(s, shard{0, c, e}, t)) * nblob
						for bi, bl := range blobs {
							n := rsTask[lead+bi]
							for d := 0; d < cfg.DP; d++ {
								r := b.gpu(s, shard{d, c, e}, t)
								if bl.layer >= 0 {
									b.addDeps(n, lastBwd[int(r)*layers+bl.layer])
								} else {
									// Embedding blob: gate on the rank's
									// final backward task of the iteration.
									b.addDeps(n, prevEnd[r])
								}
							}
							if !cfg.EagerRS && bi == len(blobs)-1 {
								// First RS of the chain: pipeline-drain
								// barrier over every rank on this rail.
								for s2 := 0; s2 < cfg.PP; s2++ {
									for _, sh2 := range shards {
										b.addDeps(n, prevEnd[b.gpu(s2, sh2, t)])
									}
								}
							}
						}
					}
				}
			}
		}
	}

	// Optimizer-step synchronization: a short AllReduce along PP
	// (gradient-norm partials across stages), one along DP, the
	// optimizer update, and a final loss AllReduce along DP (§3.1,
	// "several short AllReduce calls ... for synchronization and
	// numerical robustness"). arPP[gpu] and arDP[gpu] are the rank's
	// PP and DP norm AllReduces.
	arPP := make([]*bt, ngpu)
	arDP := make([]*bt, ngpu)
	for t := 0; t < cfg.TP; t++ {
		if cfg.PP > 1 {
			for _, sh := range shards {
				g := b.groups[string(b.ppGroupName(sh, t))]
				n := b.add(b.collTask(
					b.fmtd("AR norm-pp d%d c%d e%d r%d", sh.d, sh.c, sh.e, t),
					parallelism.AllReduce, parallelism.PP, g,
					g.Ranks, cfg.SyncARBytes, t, it, trace.Sync))
				for s := 0; s < cfg.PP; s++ {
					r := b.gpu(s, sh, t)
					if cfg.DP > 1 {
						b.addDeps(n, rsTask[int(r)*nblob]) // final RS of the chain
					} else {
						b.addDeps(n, prevEnd[r])
					}
					arPP[r] = n
				}
			}
		}
		for s := 0; s < cfg.PP; s++ {
			if cfg.DP > 1 {
				for e := 0; e < cfg.EP; e++ {
					for c := 0; c < cfg.CP; c++ {
						g := b.groups[string(b.fsdpGroupName(s, c, e, t))]
						n := b.add(b.collTask(
							b.fmtd("AR norm-dp s%d c%d e%d r%d", s, c, e, t),
							parallelism.AllReduce, parallelism.FSDP, g,
							g.Ranks, cfg.SyncARBytes, t, it, trace.Sync))
						for d := 0; d < cfg.DP; d++ {
							r := b.gpu(s, shard{d, c, e}, t)
							if pp := arPP[r]; pp != nil {
								b.addDeps(n, pp)
							} else {
								b.addDeps(n, rsTask[int(r)*nblob], prevEnd[r])
							}
							arDP[r] = n
						}
					}
				}
			}
			for _, sh := range shards {
				r := b.gpu(s, sh, t)
				ot := b.newTask()
				*ot = Task{
					Kind:      Compute,
					Label:     b.fmtd("OPT s%d d%d c%d e%d r%d", s, sh.d, sh.c, sh.e, t),
					GPU:       r,
					Duration:  cfg.OptimizerTime,
					Iteration: it,
					Phase:     trace.Sync,
				}
				opt := b.add(ot, prevEnd[r])
				if n := arDP[r]; n != nil {
					b.addDeps(opt, n)
				} else if n := arPP[r]; n != nil {
					b.addDeps(opt, n)
				}
				prevEnd[r] = opt
			}
			if cfg.DP > 1 {
				for e := 0; e < cfg.EP; e++ {
					for c := 0; c < cfg.CP; c++ {
						g := b.groups[string(b.fsdpGroupName(s, c, e, t))]
						loss := b.add(b.collTask(
							b.fmtd("AR loss s%d c%d e%d r%d", s, c, e, t),
							parallelism.AllReduce, parallelism.FSDP, g,
							g.Ranks, cfg.SyncARBytes, t, it, trace.Sync))
						for d := 0; d < cfg.DP; d++ {
							b.addDeps(loss, prevEnd[b.gpu(s, shard{d, c, e}, t)])
						}
						for d := 0; d < cfg.DP; d++ {
							prevEnd[b.gpu(s, shard{d, c, e}, t)] = loss
						}
					}
				}
			}
		}
	}
}

// intMinHeap is a hand-rolled min-heap of creation indices for the
// deterministic topological sort. container/heap costs an interface
// dispatch plus an any-box per Push/Pop, which is measurable when
// finalize runs over hundreds of thousands of tasks.
type intMinHeap []int

func (h *intMinHeap) push(x int) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q[p] <= q[i] {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *intMinHeap) pop() int {
	q := *h
	x := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		sm := i
		if l < n && q[l] < q[sm] {
			sm = l
		}
		if r < n && q[r] < q[sm] {
			sm = r
		}
		if sm == i {
			break
		}
		q[i], q[sm] = q[sm], q[i]
		i = sm
	}
	*h = q
	return x
}

// finalize topologically sorts the symbolic DAG (stable by creation
// order) and assigns TaskIDs.
func (b *builder) finalize() ([]*Task, error) {
	n := len(b.tasks)
	indeg := make([]int, n)
	// Successor lists live in one flat buffer, built in two counted
	// passes (fan-out histogram, prefix sums, fill) instead of n
	// separately grown slices.
	nedges := 0
	for _, t := range b.tasks {
		nedges += len(t.deps)
	}
	succOff := make([]int, n+1)
	for _, t := range b.tasks {
		for _, d := range t.deps {
			succOff[d.idx+1]++
			indeg[t.idx]++
		}
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	succ := make([]int, nedges)
	fill := make([]int, n)
	copy(fill, succOff[:n])
	for _, t := range b.tasks {
		for _, d := range t.deps {
			succ[fill[d.idx]] = t.idx
			fill[d.idx]++
		}
	}
	h := make(intMinHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			h.push(i)
		}
	}
	order := make([]int, 0, n)
	for len(h) > 0 {
		i := h.pop()
		order = append(order, i)
		for _, s := range succ[succOff[i]:succOff[i+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("workload: dependency cycle among %d tasks", n-len(order))
	}
	id := make([]TaskID, n)
	for rank, idx := range order {
		id[idx] = TaskID(rank)
	}
	// Dep lists are carved from one flat buffer; duplicates are rare
	// and lists are short, so a linear scan beats a per-task map.
	depbuf := make([]TaskID, 0, nedges)
	out := make([]*Task, n)
	for _, t := range b.tasks {
		t.task.ID = id[t.idx]
		start := len(depbuf)
	deps:
		for _, d := range t.deps {
			did := id[d.idx]
			for _, e := range depbuf[start:] {
				if e == did {
					continue deps
				}
			}
			depbuf = append(depbuf, did)
		}
		t.task.Deps = depbuf[start:len(depbuf):len(depbuf)]
		out[t.task.ID] = t.task
	}
	return out, nil
}
