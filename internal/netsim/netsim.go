// Package netsim executes a workload.Program on a fabric realization:
// the electrical rail baseline (full connectivity), the photonic rail
// with the Opus controller (reactive or provisioned), or a statically
// partitioned photonic rail (the C3 baseline without in-job
// reconfiguration).
//
// The executor drives the discrete-event engine: compute tasks occupy
// their GPU for a fixed duration; collectives gate on all dependencies
// (the slowest-rank barrier), acquire circuits when the fabric needs
// them, transfer for their α–β model duration, and release.
package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"photonrail/internal/collective"
	"photonrail/internal/opus"
	"photonrail/internal/parallelism"
	"photonrail/internal/sim"
	"photonrail/internal/topo"
	"photonrail/internal/trace"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// Mode selects the fabric realization.
type Mode int

// Fabric modes.
const (
	// Electrical is the packet-switched rail baseline: every collective
	// proceeds immediately at full NIC bandwidth.
	Electrical Mode = iota
	// Photonic is the OCS rail with the Opus controller reconfiguring
	// between parallelism phases.
	Photonic
	// PhotonicStatic partitions NIC ports across parallelism axes once,
	// with no in-job reconfiguration (constraint C3's bandwidth
	// fragmentation; infeasible when axes exceed ports/2 — C2).
	PhotonicStatic
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Electrical:
		return "electrical"
	case Photonic:
		return "photonic+opus"
	case PhotonicStatic:
		return "photonic-static"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure a run.
type Options struct {
	// Mode is the fabric realization.
	Mode Mode
	// ReconfigLatency is the OCS switching latency (Photonic mode).
	ReconfigLatency units.Duration
	// Provision enables Opus's speculative reconfiguration (Fig. 5b).
	// It requires a Profile; if none is supplied, Run performs an
	// internal profiling pass first (the paper's iteration-1 profiling).
	Provision bool
	// Profile is the per-rail op order from a previous run.
	Profile *Profile
	// RecordTrace enables span recording (costs memory on large runs).
	RecordTrace bool
}

// Result is the outcome of a run.
type Result struct {
	// Total is the virtual time to complete the program.
	Total units.Duration
	// IterationTimes[i] is the duration of iteration i.
	IterationTimes []units.Duration
	// Trace holds the recorded spans if Options.RecordTrace was set.
	Trace *trace.Trace
	// Reconfigurations, FastGrants, BlockedTime are controller telemetry
	// (Photonic mode).
	Reconfigurations int
	FastGrants       int
	QueuedGrants     int
	BlockedTime      units.Duration
	// Profile is the per-rail op order observed, usable to provision a
	// subsequent run.
	Profile *Profile
}

// MeanIterationTime averages the steady-state iterations (all but the
// first, which includes pipeline fill from a cold start; with a single
// iteration it is that iteration).
func (r *Result) MeanIterationTime() units.Duration {
	if len(r.IterationTimes) == 0 {
		return 0
	}
	ts := r.IterationTimes
	if len(ts) > 1 {
		ts = ts[1:]
	}
	var sum units.Duration
	for _, t := range ts {
		sum += t
	}
	return sum / units.Duration(len(ts))
}

// Profile records, per rail, the order in which scale-out collectives
// completed — the shim's "profiled traffic pattern" from iteration 1
// (§4.1). The provisioned run uses it to issue speculative requests.
//
// A Profile is immutable once built and safe to share across concurrent
// runs: the staged pipeline feeds one reactive run's Profile to the
// provisioned passes of several latency points at once. The speculation
// decisions it implies (upcomingGroups) are pure functions of the
// profile, the program, and the port plan — latency never enters — so
// they are computed once, for every profiled op, on the Profile itself
// and shared by every pass at every latency.
type Profile struct {
	// order[rail] lists task IDs in completion order.
	order map[topo.RailID][]workload.TaskID

	// pos and spec are built at the first consultation, so a profile
	// that is only compared or kept in a memoized result holds neither.
	// pos[taskID] is the task's index within its rail's order; -1 for
	// tasks outside every rail order (compute, scale-up collectives).
	// spec holds the speculation decision of every profiled op, made
	// from that run's program and port plan (in practice the only ones
	// a profile is ever consulted with: the program it was recorded
	// from, and the one plan of a provisioning Photonic run). A
	// consultation under another plan computes its decision afresh.
	specOnce sync.Once
	pos      []int
	spec     speculation
}

// speculation is upcomingGroups' answer for every profiled op, back to
// back: the op at index i of rail r's order speculates on
// groups[start[r][i]:start[r][i+1]].
type speculation struct {
	plan   opus.PortPlan
	start  [][]int32
	groups []*collective.Group
}

// Equal reports whether two profiles record the same per-rail op order.
// Profiles from distinct runs never share pointers (buildProfile always
// allocates), so convergence checks must compare contents, not
// identities.
func (p *Profile) Equal(q *Profile) bool {
	if p == nil || q == nil {
		return p == q
	}
	if len(p.order) != len(q.order) {
		return false
	}
	for rail, ids := range p.order {
		qids, ok := q.order[rail]
		if !ok || len(qids) != len(ids) {
			return false
		}
		for i, id := range ids {
			if qids[i] != id {
				return false
			}
		}
	}
	return true
}

// Fingerprint returns a deterministic digest of the profile's content:
// two profiles have the same fingerprint exactly when Equal reports
// them equal. The staged pipeline interns profiles by fingerprint so
// content-equal profiles from different runs (e.g. the reactive order
// at neighboring latencies) share one object — and therefore one
// memoized speculation plan.
func (p *Profile) Fingerprint() string {
	rails := make([]int, 0, len(p.order))
	for r := range p.order {
		rails = append(rails, int(r))
	}
	sort.Ints(rails)
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, r := range rails {
		put(r)
		ids := p.order[topo.RailID(r)]
		put(len(ids))
		for _, id := range ids {
			put(int(id))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// provisionLookahead bounds how many distinct upcoming groups the shim
// manager coalesces into one speculative request batch — the groups of
// the next parallelism phase (one per data shard, typically).
const provisionLookahead = 8

// upcomingGroups returns the distinct groups of the next parallelism
// phase following task t on its rail; see appendUpcoming. Callers must
// not modify the returned slice.
func (p *Profile) upcomingGroups(tasks []*workload.Task, t *workload.Task, table *opus.CircuitTable) []*collective.Group {
	p.specOnce.Do(func() { p.pos, p.spec = p.positions(), p.speculate(tasks, table) })
	if int(t.ID) >= len(p.pos) || p.pos[t.ID] < 0 {
		return nil // unprofiled op, or a profile from a smaller program
	}
	idx := p.pos[t.ID]
	if sp := &p.spec; sp.plan == table.Plan() && int(t.Rail) < len(sp.start) && idx+1 < len(sp.start[t.Rail]) {
		st := sp.start[t.Rail]
		return sp.groups[st[idx]:st[idx+1]:st[idx+1]]
	}
	return p.appendUpcoming(nil, tasks, p.order[t.Rail], idx, t.Group, table)
}

// positions maps every profiled task to its index within its rail's
// order and every other task below the largest profiled ID to -1.
func (p *Profile) positions() []int {
	n := 0
	for _, order := range p.order {
		for _, id := range order {
			n = max(n, int(id)+1)
		}
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for _, order := range p.order {
		for i, id := range order {
			pos[id] = i
		}
	}
	return pos
}

// speculate computes the decision of every profiled op for the
// program of tasks under the table's plan.
func (p *Profile) speculate(tasks []*workload.Task, table *opus.CircuitTable) speculation {
	rails, ops := 0, 0
	for r, order := range p.order {
		rails = max(rails, int(r)+1)
		ops += len(order)
	}
	sp := speculation{plan: table.Plan(), start: make([][]int32, rails)}
	buf := make([]int32, 0, ops+rails)
	for r := range sp.start {
		order := p.order[topo.RailID(r)]
		from := len(buf)
		for i := range order {
			buf = append(buf, int32(len(sp.groups)))
			sp.groups = p.appendUpcoming(sp.groups, tasks, order, i, tasks[order[i]].Group, table)
		}
		buf = append(buf, int32(len(sp.groups)))
		sp.start[r] = buf[from:len(buf):len(buf)]
	}
	return sp
}

// appendUpcoming appends to dst the distinct groups of the next
// parallelism phase following the op of group own at index idx of a
// rail's order: it walks the profiled order, skipping own, collecting
// mutually conflict-free groups, and stopping at the first group that
// conflicts with one already collected (that group belongs to the phase
// after next) or at a return to own.
func (p *Profile) appendUpcoming(dst []*collective.Group, tasks []*workload.Task, order []workload.TaskID, idx int, own *collective.Group, table *opus.CircuitTable) []*collective.Group {
	// Only the last op of a group run triggers provisioning: while our
	// own group still has profiled traffic immediately ahead, a
	// speculative conflicting request would stall that traffic behind
	// the FC-FS queue (tearing down circuits the phase still needs).
	if idx+1 < len(order) && tasks[order[idx+1]].Group == own {
		return dst
	}
	mark := len(dst)
	phaseStarted := false
	for j := idx + 1; j < len(order) && len(dst)-mark < provisionLookahead; j++ {
		g := tasks[order[j]].Group
		if g == own {
			if phaseStarted {
				break // the phase after next returns to our group
			}
			continue // trailing ops of the current phase
		}
		phaseStarted = true
		dup := false
		for _, seen := range dst[mark:] {
			if seen == g {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		conflict := false
		for _, seen := range dst[mark:] {
			c, err := table.GroupsConflict(seen, g)
			if err != nil {
				return dst
			}
			if c {
				conflict = true
				break
			}
		}
		if conflict {
			break // start of the phase after next
		}
		dst = append(dst, g)
	}
	return dst
}

// Run executes the program under the given options.
func Run(p *workload.Program, opts Options) (*Result, error) {
	ix, err := p.ValidIndex()
	if err != nil {
		return nil, err
	}
	if opts.ReconfigLatency < 0 {
		return nil, fmt.Errorf("netsim: negative reconfiguration latency")
	}
	if opts.Provision && opts.Mode == Photonic && opts.Profile == nil {
		// Iteration-1 profiling pass: reactive run to learn the per-rail
		// op order.
		profOpts := opts
		profOpts.Provision = false
		profOpts.RecordTrace = false
		prof, err := Run(p, profOpts)
		if err != nil {
			return nil, fmt.Errorf("netsim: profiling pass: %w", err)
		}
		opts.Profile = prof.Profile
	}
	ex, err := newExecutor(p, ix, opts)
	if err != nil {
		return nil, err
	}
	res, err := ex.run()
	// Pooled resources go back only on the non-panic paths: a panicking
	// run leaves its engine and scratch to the collector rather than
	// recycling state of unknown consistency.
	ex.release()
	return res, err
}

// scratch is the per-run mutable state of an executor, pooled across
// runs so the timed stage's hot allocations are bounded by the largest
// program seen, not the run count.
type scratch struct {
	remaining []int // unmet dependency count per task
	done      []bool
	iterEnd   []units.Duration
	// completed[rail] lists scale-out collectives in completion order.
	completed [][]workload.TaskID
	// freeXfer recycles transfer carriers; live carriers are bounded by
	// in-flight transfers, so the freelist stays peak-sized.
	freeXfer *xfer
}

// xfer carries one in-flight transfer's completion state through the
// event queue, so finishing a transfer needs no per-event closure.
type xfer struct {
	t       *workload.Task
	start   units.Duration
	release bool // release circuits (and provision ahead) on completion
	next    *xfer
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// reset sizes the scratch for a program and clears it.
func (sc *scratch) reset(tasks, iterations, rails int) {
	sc.remaining = resized(sc.remaining, tasks)
	sc.done = resized(sc.done, tasks)
	for i := range sc.done {
		sc.done[i] = false
	}
	sc.iterEnd = resized(sc.iterEnd, iterations)
	for i := range sc.iterEnd {
		sc.iterEnd[i] = 0
	}
	if cap(sc.completed) < rails {
		sc.completed = make([][]workload.TaskID, rails)
	}
	sc.completed = sc.completed[:rails]
	for i := range sc.completed {
		sc.completed[i] = sc.completed[i][:0]
	}
}

// resized returns s with length n, reusing its backing array when it
// fits. Contents are unspecified; callers overwrite.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

type executor struct {
	p      *workload.Program
	ix     *workload.Index
	opts   Options
	engine *sim.Engine
	// fabrics holds Photonic's one Opus fabric, or PhotonicStatic's
	// partitions indexed by parallelism axis; see fabricOf.
	fabrics []fabric

	sc        *scratch
	doneCount int

	// Long-lived event callbacks: the engine's PostArg* path pairs one
	// of these with a per-event argument, so steady-state scheduling
	// allocates neither closures nor events.
	startFn           func(any)
	completeComputeFn func(any)
	grantFn           func(any)
	xferFn            func(any)

	tr *trace.Trace
}

// xferBlock is how many transfer carriers an empty freelist is
// refilled with at once.
const xferBlock = 64

// newXfer pops a recycled transfer carrier, refilling an empty freelist
// with a block of fresh ones: a scratch new to the pool reaches its peak
// in a few allocations instead of one per carrier.
func (ex *executor) newXfer() *xfer {
	if ex.sc.freeXfer == nil {
		block := make([]xfer, xferBlock)
		for i := range block {
			block[i].next = ex.sc.freeXfer
			ex.sc.freeXfer = &block[i]
		}
	}
	x := ex.sc.freeXfer
	ex.sc.freeXfer = x.next
	x.next = nil
	return x
}

func (ex *executor) putXfer(x *xfer) {
	x.t = nil
	x.next = ex.sc.freeXfer
	ex.sc.freeXfer = x
}

// fabric is one port plan's realization on the rails: the plan, its
// circuit table and the controller that serves it.
type fabric struct {
	plan  opus.PortPlan
	table *opus.CircuitTable
	ctrl  *opus.Controller
}

// fabricOf returns the fabric that serves scale-out collective t.
func (ex *executor) fabricOf(t *workload.Task) *fabric {
	if ex.opts.Mode == Photonic {
		return &ex.fabrics[0]
	}
	return &ex.fabrics[t.Axis]
}

// tableOf returns the program-wide circuit table for plan, so every run
// of the program — any latency, any provisioning pass — shares one set
// of derived ring matchings and conflict verdicts.
func tableOf(ix *workload.Index, plan opus.PortPlan) *opus.CircuitTable {
	return ix.Aux(plan, func() any { return opus.NewCircuitTable(plan, ix.Groups) }).(*opus.CircuitTable)
}

func newExecutor(p *workload.Program, ix *workload.Index, opts Options) (*executor, error) {
	ex := &executor{
		p:      p,
		ix:     ix,
		opts:   opts,
		engine: sim.AcquireEngine(),
		sc:     scratchPool.Get().(*scratch),
	}
	ex.sc.reset(len(p.Tasks), p.Iterations, p.Cluster.NumRails())
	copy(ex.sc.remaining, ix.Indeg)
	ex.startFn = func(a any) { ex.start(a.(*workload.Task)) }
	ex.completeComputeFn = func(a any) {
		t := a.(*workload.Task)
		ex.complete(t, ex.engine.Now()-t.Duration)
	}
	ex.grantFn = func(a any) { ex.granted(a.(*workload.Task)) }
	ex.xferFn = func(a any) { ex.finishTransfer(a.(*xfer)) }
	if opts.RecordTrace {
		ex.tr = &trace.Trace{}
	}
	switch opts.Mode {
	case Electrical:
		// No controller.
	case Photonic:
		// Opus gives the active group the whole NIC: stripe its ring
		// across every port pair.
		plan := opus.PortPlan{
			Cluster:     p.Cluster,
			PortsPerGPU: p.Cluster.NIC.Ports,
			RingPairs:   p.Cluster.NIC.Ports / 2,
		}
		table := tableOf(ix, plan)
		ctrl, err := opus.NewController(opus.SimClock(ex.engine), table, opts.ReconfigLatency)
		if err != nil {
			ex.release()
			return nil, err
		}
		ex.fabrics = []fabric{{plan: plan, table: table, ctrl: ctrl}}
	case PhotonicStatic:
		if err := ex.setupStatic(); err != nil {
			ex.release()
			return nil, err
		}
	default:
		ex.release()
		return nil, fmt.Errorf("netsim: unknown mode %d", opts.Mode)
	}
	return ex, nil
}

// release returns the executor's pooled engine and scratch. Idempotent;
// the executor is unusable afterwards.
func (ex *executor) release() {
	if ex.engine != nil {
		ex.engine.Release()
		ex.engine = nil
	}
	if ex.sc != nil {
		scratchPool.Put(ex.sc)
		ex.sc = nil
	}
}

// setupStatic assigns each scale-out parallelism axis a disjoint pair of
// NIC ports and a zero-latency controller (circuits are fixed; the
// first acquisition installs them and they never conflict afterwards).
func (ex *executor) setupStatic() error {
	axes := scaleOutAxes(ex.p)
	ports := ex.p.Cluster.NIC.Ports
	if 2*len(axes) > ports {
		return fmt.Errorf("netsim: static partitioning infeasible: %d scale-out axes need %d ports, NIC has %d (constraint C2)",
			len(axes), 2*len(axes), ports)
	}
	if len(axes) > 0 {
		ex.fabrics = make([]fabric, axes[len(axes)-1]+1)
	}
	for i, a := range axes {
		plan := opus.PortPlan{Cluster: ex.p.Cluster, PortsPerGPU: ports, PortBase: 2 * i, RingPairs: 1}
		table := tableOf(ex.ix, plan)
		ctrl, err := opus.NewController(opus.SimClock(ex.engine), table, 0)
		if err != nil {
			return err
		}
		ex.fabrics[a] = fabric{plan: plan, table: table, ctrl: ctrl}
	}
	return nil
}

// scaleOutAxes returns the axes of the program's scale-out collectives
// in ascending order.
func scaleOutAxes(p *workload.Program) []parallelism.Axis {
	var seen uint64 // bit a: axis a has a scale-out collective
	for _, t := range p.Tasks {
		if t.IsCollective() && !t.ScaleUp {
			seen |= 1 << t.Axis
		}
	}
	var out []parallelism.Axis
	for a := parallelism.Axis(0); seen>>a != 0; a++ {
		if seen&(1<<a) != 0 {
			out = append(out, a)
		}
	}
	return out
}

func (ex *executor) run() (*Result, error) {
	// Seed: all tasks with no dependencies.
	for _, t := range ex.p.Tasks {
		if ex.sc.remaining[t.ID] == 0 {
			ex.engine.PostArgNow(ex.startFn, t)
		}
	}
	total := ex.engine.Run()
	if ex.doneCount != len(ex.p.Tasks) {
		return nil, fmt.Errorf("netsim: deadlock — %d of %d tasks incomplete",
			len(ex.p.Tasks)-ex.doneCount, len(ex.p.Tasks))
	}
	res := &Result{Total: total, Trace: ex.tr, Profile: ex.buildProfile()}
	prev := units.Duration(0)
	for _, end := range ex.sc.iterEnd {
		res.IterationTimes = append(res.IterationTimes, end-prev)
		prev = end
	}
	if ex.opts.Mode == Photonic {
		st := ex.fabrics[0].ctrl.Stats()
		res.Reconfigurations = st.Reconfigurations
		res.FastGrants = st.FastGrants
		res.QueuedGrants = st.QueuedGrants
		res.BlockedTime = st.BlockedTime
	}
	return res, nil
}

func (ex *executor) start(t *workload.Task) {
	if t.Kind == workload.Compute {
		ex.engine.PostArgAfter(t.Duration, ex.completeComputeFn, t)
		return
	}
	arrival := ex.engine.Now()
	switch {
	case t.ScaleUp:
		ex.transfer(t, arrival, ex.p.Cluster.ScaleUpBandwidth, ex.p.Cluster.ScaleUpLatency, false)
	case ex.opts.Mode == Electrical:
		ex.transfer(t, arrival, ex.p.Cluster.NIC.Total(), ex.p.Cluster.ScaleOutLatency, false)
	default:
		if err := ex.fabricOf(t).ctrl.AcquireArg(t.Rail, t.Group, ex.grantFn, t); err != nil {
			panic(err)
		}
	}
}

// granted runs when the controller installs a scale-out collective's
// circuits: the transfer starts now and releases them on completion.
func (ex *executor) granted(t *workload.Task) {
	bw := ex.circuitBandwidth(t)
	ex.transfer(t, ex.engine.Now(), bw, ex.p.Cluster.ScaleOutLatency, true)
}

// circuitBandwidth returns the bandwidth a collective sees on its
// circuits: a ring collective rides a bidirectional double ring per port
// pair (two circuits per member per pair); Send/Recv rides the circuits
// joining its endpoint pair.
func (ex *executor) circuitBandwidth(t *workload.Task) units.Bandwidth {
	perPort := ex.p.Cluster.NIC.PerPort
	fab := ex.fabricOf(t)
	if t.CollKind == collective.SendRecv && len(t.Ranks) == 2 {
		n, err := fab.table.CircuitsBetween(t.Group, t.Ranks[0], t.Ranks[1])
		if err != nil {
			panic(err)
		}
		if n == 0 {
			n = 1 // degenerate; never happens for ring-adjacent pairs
		}
		return units.Bandwidth(int64(n) * int64(perPort))
	}
	pairs := fab.plan.RingPairs
	if pairs <= 0 {
		pairs = 1
	}
	return units.Bandwidth(2 * int64(pairs) * int64(perPort))
}

// transfer runs the collective's α–β duration and completes the task;
// release additionally returns the circuits (and provisions ahead) on
// completion.
func (ex *executor) transfer(t *workload.Task, start units.Duration, bw units.Bandwidth, alpha units.Duration, release bool) {
	onCircuits := ex.opts.Mode != Electrical && !t.ScaleUp
	alg := collective.DefaultAlgorithm(t.CollKind, onCircuits)
	k := len(t.Ranks)
	if t.CollKind != collective.SendRecv {
		k = t.Group.Size()
	}
	d, err := collective.Time(t.CollKind, alg, k, t.Bytes, bw, alpha)
	if err != nil {
		panic(fmt.Sprintf("netsim: %s: %v", t.Label, err))
	}
	x := ex.newXfer()
	x.t, x.start, x.release = t, start, release
	ex.engine.PostArgAfter(d, ex.xferFn, x)
}

// finishTransfer fires when a transfer's α–β duration elapses.
func (ex *executor) finishTransfer(x *xfer) {
	t, start, release := x.t, x.start, x.release
	ex.putXfer(x)
	if release {
		if err := ex.fabricOf(t).ctrl.Release(t.Rail, t.Group); err != nil {
			panic(err)
		}
		ex.provisionNext(t)
	}
	ex.complete(t, start)
}

func (ex *executor) complete(t *workload.Task, start units.Duration) {
	if ex.sc.done[t.ID] {
		panic(fmt.Sprintf("netsim: task %s completed twice", t.Label))
	}
	ex.sc.done[t.ID] = true
	ex.doneCount++
	now := ex.engine.Now()
	if now > ex.sc.iterEnd[t.Iteration] {
		ex.sc.iterEnd[t.Iteration] = now
	}
	if t.IsCollective() && !t.ScaleUp {
		ex.sc.completed[t.Rail] = append(ex.sc.completed[t.Rail], t.ID)
	}
	if ex.tr != nil && t.IsCollective() {
		rail := t.Rail
		if t.ScaleUp {
			rail = trace.ScaleUpRail
		}
		ex.tr.Add(trace.Span{
			Label:     t.Label,
			Kind:      t.CollKind,
			Axis:      t.Axis,
			Group:     t.Group.Name,
			Rail:      rail,
			Bytes:     t.Bytes,
			Start:     start,
			End:       now,
			Iteration: t.Iteration,
			Phase:     t.Phase,
		})
	}
	for _, s := range ex.ix.Succ[t.ID] {
		ex.sc.remaining[s]--
		if ex.sc.remaining[s] == 0 {
			ex.engine.PostArgNow(ex.startFn, ex.p.Tasks[s])
		}
	}
}

// provisionNext implements the shim's speculative request: when a
// scale-out collective releases its circuits, the profiled schedule
// names the next group on the rail; if it differs, the controller can
// begin reconfiguring inside the window (§4.1, Fig. 5b).
func (ex *executor) provisionNext(t *workload.Task) {
	if !ex.opts.Provision || ex.opts.Profile == nil {
		return
	}
	fab := ex.fabricOf(t)
	for _, g := range ex.opts.Profile.upcomingGroups(ex.p.Tasks, t, fab.table) {
		if err := fab.ctrl.Provision(t.Rail, g); err != nil {
			panic(err)
		}
	}
}

// buildProfile converts the observed per-rail completion order into the
// provisioning profile for a subsequent run.
func (ex *executor) buildProfile() *Profile {
	prof := &Profile{order: make(map[topo.RailID][]workload.TaskID)}
	for rail, ids := range ex.sc.completed {
		if len(ids) == 0 {
			continue // rails with no scale-out traffic have no order entry
		}
		cp := make([]workload.TaskID, len(ids))
		copy(cp, ids)
		prof.order[topo.RailID(rail)] = cp
	}
	return prof
}
