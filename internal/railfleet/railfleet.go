// Package railfleet scales raild past one machine: a coordinator that
// speaks the same opusnet protocol raild does — existing railclient
// invocations work unchanged, pointed at it — but executes each grid
// across a fleet of backend raild daemons.
//
// For every grid-experiment exp_req the coordinator expands the grid
// locally, shards the cells across the live backends by canonical
// workload key (see WorkloadKey/AssignWeighted: all fabric variants of
// one workload colocate, so each electrical baseline simulates exactly
// once fleet-wide), fans the shards out as cells_req batches bounded
// by a per-backend in-flight cap, merges the partial rows back into
// canonical expansion order, and streams aggregated exp_progress — the
// fleet's output is byte-identical to a single daemon's.
//
// Membership is one internal/railctl registry. Each static -backends
// entry is a member with the reserved identity StaticID(i) and weight
// 1 (sharded by fleet position, byte-identically to earlier releases),
// kept alive by the coordinator's own probes: a dial or stats_req it
// answers, a failure that marks it dead, and a probe loop that revives
// it. Backends may also register themselves over the same protocol
// (fleet_register), keep alive with heartbeats that piggyback their
// serving stats, and depart gracefully with a drain frame. Registered
// liveness is heartbeat-edge driven (no per-request dial probes);
// capacity advertised at registration weights the rendezvous shard, so
// a bigger worker pool draws proportionally more cells; and a draining
// backend finishes its in-flight batch while its unstarted cells hand
// off to the next wave without tripping failover.
//
// Failover is part of the contract: a backend that dies, times out, or
// errors mid-grid has its unfinished cells re-sharded across the
// survivors (wave by wave, until done or no backend is left), and a
// failed static backend is re-probed in the background every
// HeartbeatTTL/3, so a restarted daemon rejoins on its own.
// Request-level singleflight and cancellation are raild's own: the
// coordinator is built on railserve.Core, the serving skeleton raild
// runs on, so every exp_req is admitted by the same join-or-start code.
// Identical in-flight requests coalesce onto one execution, a cancel
// frame (or dropped connection, or TimeoutMS) stops only that request's
// wait and its progress frames, and when the last waiter departs the
// execution's context is cancelled — which cancels the outstanding
// cells_req waits, sending cancel frames to the backends.
//
// Non-grid experiments (fig4, table1, bom, …) are proxied to one
// backend chosen by rendezvous hash of the experiment name, failing
// over to the next live backend on connection errors. They coalesce at
// the coordinator on photonrail.ExperimentKey, exactly as raild keys
// them, so identical concurrent requests reach a backend as one
// exp_req; each waiter's deadline is enforced at the coordinator.
package railfleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"photonrail"
	"photonrail/internal/exp"
	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// Config parameterizes New.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, serves instead of a TCP listener on Addr
	// (the in-process harnesses plug pipe-backed listeners in here).
	Listener net.Listener
	// Backends are the static raild daemon addresses cells shard
	// across. May be empty when AllowRegistration is set; at least one
	// of the two fleet sources is required.
	Backends []string
	// AllowRegistration accepts fleet_register/heartbeat/drain frames:
	// raild daemons join the fleet themselves (see internal/railctl)
	// instead of — or alongside — the static Backends list.
	AllowRegistration bool
	// HeartbeatTTL marks a registered backend dead when its newest
	// heartbeat is older than this; 0 means railctl.DefaultHeartbeatTTL.
	// Dead static backends are re-probed every HeartbeatTTL/3, the
	// cadence an agent heartbeats at.
	HeartbeatTTL time.Duration
	// Now replaces the membership clock for tests; nil means time.Now.
	Now func() time.Time
	// InFlight caps the cells one backend holds in flight per request
	// (cells per cells_req batch); 0 means DefaultInFlight.
	InFlight int
	// BatchTimeout bounds one cells_req batch on one backend: a
	// backend that is alive but wedged (socket open, no results) has
	// its batch abandoned after this long and the cells re-sharded to
	// the survivors — the "times out" leg of the failover contract.
	// 0 means DefaultBatchTimeout; negative disables the bound.
	BatchTimeout time.Duration
	// Dial, when non-nil, replaces the TCP dialer for backend
	// connections (the fault-injection harness routes named endpoints
	// through here).
	Dial func(addr string) (net.Conn, error)
	// Logf, when non-nil, receives one line per served request and
	// failover event.
	Logf func(format string, args ...any)
}

// DefaultInFlight is the per-backend in-flight cell cap when Config
// leaves it zero: small enough that a mid-grid backend death loses at
// most one batch per backend, large enough to amortize framing.
const DefaultInFlight = 16

// DefaultBatchTimeout is the per-batch wedge bound when Config leaves
// it zero — generous next to a batch's worst-case simulation time, so
// it only fires on genuinely stuck backends.
const DefaultBatchTimeout = 5 * time.Minute

// Coordinator is the fleet front end: the railserve serving Core (accept
// loop, request singleflight, observability, Drain) over a fan-out
// across the fleet's members.
type Coordinator struct {
	*railserve.Core
	tel          *telemetry.Set // the Core's
	inFlight     int
	batchTimeout time.Duration
	logf         func(format string, args ...any)
	dial         func(addr string) (net.Conn, error)
	now          func() time.Time

	// registry is the membership table: static members kept alive by
	// coordinator probes, registered members by heartbeats. Data-plane
	// connections for its members live in members, keyed by member id,
	// guarded by mu. allowRegistration gates the fleet_register,
	// heartbeat and drain frames.
	registry          *railctl.Registry
	allowRegistration bool

	failoversC *telemetry.Counter
	membersG   *telemetry.GaugeVec

	// exps counts exp_req arrivals that started (or joined) a fleet
	// execution or a proxied run, mirroring raild's counters.
	exps railserve.DedupCounters

	mu      sync.Mutex
	members map[string]*backend // member id -> data-plane record

	probeWG sync.WaitGroup // the dead-static probe loop
}

// New starts a coordinator for the given backends. Backends are dialed
// lazily, on the first request that needs them, so the fleet may come
// up in any order; with AllowRegistration the fleet may even start
// empty and fill in as daemons register.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 && !cfg.AllowRegistration {
		return nil, fmt.Errorf("railfleet: no backends configured")
	}
	dial := cfg.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	inFlight := cfg.InFlight
	if inFlight <= 0 {
		inFlight = DefaultInFlight
	}
	batchTimeout := cfg.BatchTimeout
	if batchTimeout == 0 {
		batchTimeout = DefaultBatchTimeout
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	ttl := cfg.HeartbeatTTL
	if ttl <= 0 {
		ttl = railctl.DefaultHeartbeatTTL
	}
	core, err := railserve.NewCore(railserve.CoreConfig{Addr: cfg.Addr, Listener: cfg.Listener, Prefix: "railfleet", Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	f := &Coordinator{
		Core:              core,
		tel:               core.Telemetry(),
		inFlight:          inFlight,
		batchTimeout:      batchTimeout,
		logf:              cfg.Logf,
		dial:              dial,
		now:               now,
		allowRegistration: cfg.AllowRegistration,
		members:           make(map[string]*backend),
	}
	f.failoversC = f.tel.Metrics.Counter("railfleet_failovers_total",
		"Backend failures mid-request whose work was re-sharded to (or retried on) the surviving backends.")
	f.membersG = f.tel.Metrics.GaugeVec("railfleet_members",
		"Fleet members by membership state, static and registered alike; a static member is healthy until a probe, stats query or batch fails on it.",
		"state")
	f.tel.Metrics.OnScrape(f.sampleMembership)
	f.registry = railctl.NewRegistry(railctl.Config{
		TTL: ttl,
		Now: now,
		OnEvent: func(ev railctl.Event) {
			if f.logf != nil {
				f.logf("railfleet: member %s (%s): %s %s", ev.ID, ev.Addr, ev.Type, ev.Reason)
			}
			f.tel.Events.Emit(telemetry.Event{Type: ev.Type, Member: ev.ID,
				Backend: ev.Addr, Capacity: ev.Capacity, Reason: ev.Reason})
		},
	})
	for i, addr := range cfg.Backends {
		f.registry.AddStatic(StaticID(i), addr)
	}
	if len(cfg.Backends) > 0 {
		f.probeWG.Add(1)
		go f.probeLoop(ttl / 3)
	}
	core.Start(f.dispatch, f.Stats)
	return f, nil
}

// sampleMembership copies the membership table into the per-state
// gauge family at scrape time, so the /metrics view always matches
// what the next wave would see.
func (f *Coordinator) sampleMembership() {
	counts := map[railctl.State]float64{
		railctl.StateHealthy: 0, railctl.StateDraining: 0,
		railctl.StateDrained: 0, railctl.StateDead: 0,
	}
	for _, m := range f.registry.Members() {
		counts[m.State]++
	}
	for state, n := range counts { //lint:allow maporder gauge series are independent; set order is immaterial
		f.membersG.With(string(state)).Set(n)
	}
}

// Close stops accepting, tears down live connections, cancels in-flight
// fleet executions, waits for the connection handlers and the probe
// loop, and closes the backend connections. Like raild, executions are
// abandoned rather than waited for (Drain exists for tests).
func (f *Coordinator) Close() error {
	err := f.Core.Close()
	f.probeWG.Wait()
	f.mu.Lock()
	bs := make([]*backend, 0, len(f.members))
	for _, b := range f.members { //lint:allow maporder collecting for close; order is immaterial
		bs = append(bs, b)
	}
	f.mu.Unlock()
	for _, b := range bs {
		b.close()
	}
	return err
}

// statsTimeout bounds the static members' stats queries inside one
// Stats call.
const statsTimeout = 5 * time.Second

// Stats reports the coordinator's serving telemetry: its request-level
// counters, the per-member membership view, and the cache counters
// aggregated across the fleet, all read from the registry. Live
// connected static members are first asked for a fresh stats_req (see
// refreshStatics); registered members are never queried here, since
// their newest heartbeat already carried their snapshot. The registry
// retains every member's last snapshot (members are never deleted), so
// a dead member keeps contributing its last-known-good counters and
// fleet aggregates never go backwards when a backend dies. (A backend
// that restarts legitimately resets its own counters; monotonicity is
// guaranteed across unreachability, not across backend restarts.)
//
// After Close, Stats returns promptly without querying anything —
// local counters plus the retained per-member contributions, every
// member reported unhealthy — rather than racing the cancelled base
// context.
func (f *Coordinator) Stats() opusnet.CacheStatsPayload {
	closed := f.Closed()
	out := opusnet.CacheStatsPayload{
		ExpsExecuted: f.exps.Executed.Load(),
		ExpsDeduped:  f.exps.Deduped.Load(),
	}
	if !closed {
		f.refreshStatics()
	}
	nowT := f.now()
	for _, m := range f.registry.Members() {
		snap := opusnet.BackendStatsPayload{
			Addr: m.Addr, ID: m.ID, Static: m.Static, Capacity: m.Capacity, State: string(m.State),
			Healthy: !closed && m.State == railctl.StateHealthy,
		}
		if !m.LastHeartbeat.IsZero() {
			snap.LastHeartbeatAgeMS = nowT.Sub(m.LastHeartbeat).Milliseconds()
		}
		if b := f.lookup(m.ID); b != nil {
			snap.Cells, snap.Failures = b.counts()
		}
		addStats(&out, m.Stats, snap.Healthy)
		out.Backends = append(out.Backends, snap)
	}
	return out
}

// addStats folds one backend's retained cache counters into the fleet
// aggregate. Counters are retained across unreachability; the
// in-flight gauge is not — a dead backend runs nothing.
func addStats(out *opusnet.CacheStatsPayload, bst opusnet.CacheStatsPayload, healthy bool) {
	if !healthy {
		bst.InFlight = 0
	}
	out.Hits += bst.Hits
	out.Misses += bst.Misses
	out.Evictions += bst.Evictions
	out.InFlight += bst.InFlight
	out.CellsExecuted += bst.CellsExecuted
	out.CellsDeduped += bst.CellsDeduped
	out.BuildHits += bst.BuildHits
	out.BuildMisses += bst.BuildMisses
	out.ProvisionHits += bst.ProvisionHits
	out.ProvisionMisses += bst.ProvisionMisses
	out.TimeHits += bst.TimeHits
	out.TimeMisses += bst.TimeMisses
	out.SeedHits += bst.SeedHits
	out.SeedMisses += bst.SeedMisses
}

func (f *Coordinator) dispatch(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	switch msg.Type {
	case opusnet.MsgExpReq:
		f.serveExp(msg, reply, cs)
	case opusnet.MsgCancel:
		cs.CancelSeq(msg.Seq)
	case opusnet.MsgFleetRegister, opusnet.MsgHeartbeat, opusnet.MsgDrain:
		f.serveMembership(msg, reply)
	case opusnet.MsgStatsReq:
		seq := msg.Seq
		f.Go(func() { // Stats queries backends; never block the read loop
			st := f.Stats()
			reply(&opusnet.Message{Type: opusnet.MsgStatsResp, Seq: seq, Cache: &st}, true)
		})
	default:
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq,
			Error: fmt.Sprintf("railfleet: unsupported message type %q", msg.Type)}, true)
	}
}

// serveMembership serves the registration plane — fleet_register,
// heartbeat and drain — when registration is allowed. The connection
// is pure control plane: cells travel over connections the coordinator
// dials to a member's advertised address, so a member behind the same
// dialer as the statics needs no extra plumbing. A heartbeat from an
// unknown identity is refused so the agent re-registers (the
// coordinator may have restarted and lost its table); a drain of one
// acks, since the member is already not part of the fleet and a
// retried SIGTERM must not fail; and every frame naming a static
// member's reserved identity is refused (railctl.ErrStaticMember).
func (f *Coordinator) serveMembership(msg *opusnet.Message, reply func(*opusnet.Message, bool)) {
	var err error
	switch {
	case !f.allowRegistration:
		err = errors.New("railfleet: dynamic registration disabled (static -backends fleet)")
	case msg.Type == opusnet.MsgFleetRegister && msg.FleetReg != nil:
		err = f.registry.Register(msg.FleetReg.ID, msg.FleetReg.Addr, msg.FleetReg.Capacity)
	case msg.Type == opusnet.MsgHeartbeat && msg.Heartbeat != nil:
		err = f.registry.Heartbeat(msg.Heartbeat.ID, msg.Heartbeat.Capacity, msg.Heartbeat.Stats)
	case msg.Type == opusnet.MsgDrain && msg.DrainReq != nil:
		if err = f.registry.Drain(msg.DrainReq.ID, msg.DrainReq.Reason); errors.Is(err, railctl.ErrUnknownMember) {
			err = nil
		}
	default:
		err = fmt.Errorf("railfleet: %s without a payload", msg.Type)
	}
	if err != nil {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq, Error: err.Error()}, true)
		return
	}
	reply(&opusnet.Message{Type: opusnet.MsgAck, Seq: msg.Seq}, true)
}

// serveExp serves exp_req at the coordinator on the railserve Core, so
// requests coalesce, wait, cancel and depart exactly as they do at a
// raild: grid experiments fan out across the fleet (identical grids
// coalescing onto one fleet execution, whose merged rows ship as the
// JSON rendering a raild would ship); everything else is proxied to
// a backend, coalescing on the key raild itself would use.
func (f *Coordinator) serveExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	var r *railserve.Request
	var err error
	if msg.Exp != nil && photonrail.IsGridExperiment(msg.Exp.Name) {
		r, err = f.gridRequest(*msg.Exp)
	} else {
		r, err = f.proxyRequest(msg.Exp)
	}
	if err != nil {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq, Error: err.Error()}, true)
		return
	}
	name := msg.Exp.Name
	r.Seq, r.TimeoutMS = msg.Seq, msg.Exp.TimeoutMS
	r.Exp = name
	r.Desc = fmt.Sprintf("railfleet: experiment %q", name)
	r.Count = f.exps.Count(1)
	r.Result = railserve.ExpResult(msg.Seq, name)
	f.Serve(r, reply, cs)
}

// gridRequest resolves a grid experiment's effective grid exactly as the
// registry would — an explicit spec wins; a built-in grid experiment
// falls back to its registered grid; bare "grid" falls back to the
// paper-default custom grid — and executes it as one fleet fan-out,
// keyed on the resolved grid.
func (f *Coordinator) gridRequest(req opusnet.ExpRequestPayload) (*railserve.Request, error) {
	var spec scenario.Spec
	switch {
	case req.Grid != nil:
		spec = *req.Grid
	case req.Name != "grid":
		spec = scenario.SpecOf(scenario.Grids()[req.Name]())
	}
	if req.Name == "grid" && spec.Name == "" {
		spec.Name = "custom"
	}
	grid, err := railserve.ValidateGridSpec(spec)
	if err != nil {
		return nil, err
	}
	return &railserve.Request{
		Key:   exp.Key("fleet", grid),
		Cells: grid.CellCount(),
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			rows, err := f.executeGrid(ctx, spec, grid, progress)
			if err != nil {
				return nil, err
			}
			return railserve.RenderExpPayload(req.Name, photonrail.GridExperimentResult(grid.Name, rows))
		},
	}, nil
}

// proxyRequest forwards a non-grid experiment to one backend, keyed on
// photonrail.ExperimentKey exactly as raild keys it. The forwarded
// request carries no TimeoutMS: each waiter's deadline is enforced
// here, and the last departure cancels the backend call.
func (f *Coordinator) proxyRequest(req *opusnet.ExpRequestPayload) (*railserve.Request, error) {
	_, p, err := railserve.ResolveExp(req)
	if err != nil {
		return nil, err
	}
	fwd := *req
	fwd.TimeoutMS = 0
	return &railserve.Request{
		Key: photonrail.ExperimentKey(req.Name, p),
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			return f.proxy(ctx, fwd, progress)
		},
	}, nil
}

// proxy runs a request on one backend — chosen by rendezvous hash of
// the experiment name so repeat requests land on the same warm cache —
// failing over to the next live backend on connection errors.
// Application-level refusals are returned as-is: a retry elsewhere
// would only repeat them.
func (f *Coordinator) proxy(ctx context.Context, req opusnet.ExpRequestPayload, progress func(done, total int)) (*opusnet.ExpResultPayload, error) {
	var lastErr error
	for _, b := range f.proxyOrder(req.Name) {
		c, err := f.connect(b)
		if err != nil {
			lastErr = err
			continue
		}
		run, err := c.RunExperiment(ctx, req, progress)
		if err == nil {
			return &opusnet.ExpResultPayload{Name: run.Name, Grid: run.Grid,
				Rendered: run.Rendered, RenderedCSV: run.RenderedCSV, RowsJSON: run.RowsJSON}, nil
		}
		if ctx.Err() != nil || !errors.Is(err, railserve.ErrConnDown) {
			return nil, err
		}
		if f.logf != nil {
			f.logf("railfleet: backend %s died serving experiment %q: %v (failing over)", b.address(), req.Name, err)
		}
		b.fail(c)
		f.registry.ProbeFailed(b.id, "failover")
		f.failoversC.Inc()
		f.tel.Events.Emit(telemetry.Event{Type: "failover", Exp: req.Name,
			Backend: b.address(), Member: b.id, Err: err.Error()})
		lastErr = err
	}
	return nil, fmt.Errorf("railfleet: no live backend served experiment %q (last error: %v)", req.Name, lastErr)
}

// proxyOrder ranks the fleet's members by weighted rendezvous score
// for an experiment name — the same hash the cell shard uses, so
// repeat requests land on the same warm cache. Assignable members rank
// first; dead statics are appended as a last resort (the failover walk
// probes them only when everything better already failed).
func (f *Coordinator) proxyOrder(name string) []*backend {
	type cand struct {
		m     railctl.Member
		score float64
	}
	var live, last []cand
	for _, m := range f.registry.Members() {
		c := cand{m, weightedScore(name, Target{ID: m.ID, Weight: m.Capacity})}
		switch {
		case m.State == railctl.StateHealthy:
			live = append(live, c)
		case m.Static && m.State == railctl.StateDead:
			last = append(last, c)
		}
	}
	rank := func(cs []cand) {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].score != cs[j].score {
				return cs[i].score > cs[j].score
			}
			return cs[i].m.ID < cs[j].m.ID
		})
	}
	rank(live)
	rank(last)
	out := make([]*backend, 0, len(live)+len(last))
	for _, c := range append(live, last...) {
		out = append(out, f.member(c.m))
	}
	return out
}

// executeGrid fans one expanded grid out across the fleet and merges
// the partial rows back into canonical expansion order — the
// coordinator's core. Cells shard by workload key with each backend's
// capacity as rendezvous weight (AssignWeighted); each backend's share
// is submitted in batches of at most f.inFlight cells (the per-backend
// in-flight cap). A backend that dies or errors mid-grid has its
// unfinished cells re-sharded across the survivors on the next wave; a
// backend that drains mid-grid finishes the batch it holds and hands
// its unsubmitted cells to the next wave — graceful, so no failover is
// counted. The grid fails only when no backend is left. The returned
// rows are byte-identical to a single-daemon run, whichever backends
// executed which cells.
//
// onCell receives aggregated monotonic progress over the whole grid:
// committed cells (rows landed) plus live in-batch ticks, never
// exceeding the total — a failed batch's ticks are discarded along
// with its re-executed cells.
func (f *Coordinator) executeGrid(ctx context.Context, spec scenario.Spec, grid scenario.Grid, onCell func(done, total int)) ([]scenario.Row, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cells := grid.Expand()
	total := len(cells)
	rows := make([]scenario.Row, total)

	var pmu sync.Mutex
	committed, lastEmitted, batchSeq := 0, 0, 0
	live := make(map[int]int) // batch id -> cells done in that batch
	emit := func() {          // pmu held
		v := committed
		for _, d := range live {
			v += d
		}
		if v > lastEmitted {
			lastEmitted = v
			if onCell != nil {
				onCell(v, total)
			}
		}
	}

	remaining := make([]int, total)
	for i := range remaining {
		remaining[i] = i
	}
	// A backend that fails during THIS request is excluded from its
	// later waves: each wave's candidate set strictly shrinks, so a
	// backend returning a deterministic refusal (e.g. a pre-cells_req
	// raild answering "unsupported message type") is routed around
	// once instead of being re-dialed and re-failed forever. (Drained
	// members need no entry here: the next wave's registry read already
	// excludes them.)
	excluded := make(map[string]bool)
	for wave := 0; len(remaining) > 0; wave++ {
		targets, byID := f.waveTargets(excluded)
		if len(targets) == 0 {
			return nil, fmt.Errorf("railfleet: no live backends (%d of %d cells unexecuted)", len(remaining), total)
		}
		assignment := AssignWeighted(cells, remaining, targets)
		if f.logf != nil {
			f.logf("railfleet: grid %q wave %d: %d cells across %d backends", grid.Name, wave, len(remaining), len(assignment))
		}
		// One sharded event per (wave, backend), in member-id order so
		// the event stream is deterministic for a given assignment.
		shardOrder := make([]string, 0, len(assignment))
		for id := range assignment {
			shardOrder = append(shardOrder, id)
		}
		sort.Strings(shardOrder)
		for _, id := range shardOrder {
			f.tel.Events.Emit(telemetry.Event{Type: "sharded", Exp: grid.Name,
				Backend: byID[id].address(), Member: id, Cells: len(assignment[id]), Wave: wave})
		}
		var wg sync.WaitGroup
		var fmu sync.Mutex
		var failed []int
		for id, idxs := range assignment {
			b, idxs := byID[id], idxs
			wg.Add(1)
			go func() {
				defer wg.Done()
				for start := 0; start < len(idxs); start += f.inFlight {
					if f.registry.Draining(b.id) {
						// Graceful departure: the unsubmitted remainder hands
						// off to the next wave. No failover counter, no
						// exclusion — this is the drain working as designed.
						f.tel.Events.Emit(telemetry.Event{Type: "drain_handoff", Exp: grid.Name,
							Backend: b.address(), Member: b.id, Cells: len(idxs) - start, Wave: wave})
						fmu.Lock()
						failed = append(failed, idxs[start:]...)
						fmu.Unlock()
						return
					}
					end := start + f.inFlight
					if end > len(idxs) {
						end = len(idxs)
					}
					if err := f.runBatch(ctx, b, spec, idxs[start:end], rows, &pmu, &committed, live, &batchSeq, emit); err != nil {
						if ctx.Err() != nil {
							return // cancelled: the wave exit reports it
						}
						if f.registry.Draining(b.id) {
							// The drain raced the batch: its connection may
							// already be gone, but the departure is still
							// graceful — hand off, don't count a failover.
							f.tel.Events.Emit(telemetry.Event{Type: "drain_handoff", Exp: grid.Name,
								Backend: b.address(), Member: b.id, Cells: len(idxs) - start, Wave: wave})
							fmu.Lock()
							failed = append(failed, idxs[start:]...)
							fmu.Unlock()
							return
						}
						if f.logf != nil {
							f.logf("railfleet: backend %s failed %d cells of grid %q: %v (re-sharding)",
								b.address(), len(idxs)-start, grid.Name, err)
						}
						f.registry.ProbeFailed(b.id, "failover")
						f.failoversC.Inc()
						f.tel.Events.Emit(telemetry.Event{Type: "failover", Exp: grid.Name,
							Backend: b.address(), Member: b.id, Cells: len(idxs) - start, Wave: wave, Err: err.Error()})
						fmu.Lock()
						excluded[b.id] = true
						failed = append(failed, idxs[start:]...)
						fmu.Unlock()
						return
					}
					f.tel.Events.Emit(telemetry.Event{Type: "cell_complete", Exp: grid.Name,
						Backend: b.address(), Member: b.id, Cells: end - start, Wave: wave})
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		remaining = failed
	}
	return rows, nil
}

// runBatch executes one cell batch on one backend and merges its rows.
// Any failure other than the caller's own cancellation marks the
// backend failed (dropping its connection) so the wave loop re-shards.
func (f *Coordinator) runBatch(ctx context.Context, b *backend, spec scenario.Spec, batch []int,
	rows []scenario.Row, pmu *sync.Mutex, committed *int, live map[int]int, batchSeq *int, emit func()) error {
	pmu.Lock()
	*batchSeq++
	id := *batchSeq
	pmu.Unlock()
	defer func() {
		pmu.Lock()
		delete(live, id)
		pmu.Unlock()
	}()

	c, err := b.get()
	if err != nil {
		return err
	}
	// The batch — not the request — is bounded: a wedged backend's
	// batch expires (sending it a cancel frame) and its cells re-shard,
	// while the caller's own cancellation is still distinguished via
	// the parent ctx.
	bctx := ctx
	if f.batchTimeout > 0 {
		var bcancel context.CancelFunc
		bctx, bcancel = context.WithTimeout(ctx, f.batchTimeout)
		defer bcancel()
	}
	run, err := c.RunCellsCtx(bctx, spec, batch, 0, func(done, _ int) {
		pmu.Lock()
		if done > live[id] {
			live[id] = done
			emit()
		}
		pmu.Unlock()
	})
	if err == nil && len(run.Rows) != len(batch) {
		err = fmt.Errorf("railfleet: backend %s returned %d rows for a %d-cell batch", b.address(), len(run.Rows), len(batch))
	}
	if err != nil {
		if ctx.Err() == nil {
			b.fail(c)
		}
		return err
	}
	for j, idx := range batch {
		rows[idx] = run.Rows[j]
	}
	b.note(len(batch))
	pmu.Lock()
	delete(live, id)
	*committed += len(batch)
	emit()
	pmu.Unlock()
	return nil
}
