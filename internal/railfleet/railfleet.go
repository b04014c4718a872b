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
// Request-level singleflight and cancellation keep raild's semantics
// across the fan-out: identical in-flight requests coalesce onto one
// fleet execution, a cancel frame (or dropped connection, or
// TimeoutMS) stops only that request's wait, and when the last waiter
// departs the fleet execution's context is cancelled — which cancels
// the outstanding cells_req waits, sending cancel frames to the
// backends.
//
// Non-grid experiments (fig4, table1, bom, …) are proxied to one
// backend chosen by rendezvous hash of the experiment name, failing
// over to the next live backend on connection errors.
package railfleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
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

// eventRingCapacity bounds the coordinator's request-lifecycle event
// ring (see the railserve twin): a fig8-5d fan-out emits a few hundred
// sharded/cell_complete events, so 4096 retains several full grids.
const eventRingCapacity = 4096

// Coordinator is the fleet front end.
type Coordinator struct {
	ln           net.Listener
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

	// tel is the coordinator's observability surface: sampled
	// stats_resp metrics (via Stats, so a scrape and a stats frame
	// agree), live request gauges/histograms, the failover counter, and
	// the lifecycle event ring.
	tel        *telemetry.Set
	reqSeq     atomic.Uint64
	inflightG  *telemetry.Gauge
	durations  *telemetry.HistogramVec
	failoversC *telemetry.Counter
	membersG   *telemetry.GaugeVec

	// baseCtx parents every fleet execution and request wait; Close
	// cancels it.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	runs    map[string]*fleetRun // resolved-grid key -> in-flight fleet execution
	conns   map[net.Conn]bool
	members map[string]*backend // member id -> data-plane record
	closed  bool
	// Request-level counters, mirroring raild's: exp_req arrivals that
	// started (or joined) a fleet execution or a proxied run.
	expsExecuted, expsDeduped uint64

	wg     sync.WaitGroup // accept loop + connection handlers
	execWG sync.WaitGroup // fleet executions + result deliveries

	// execGate, when non-nil, is received from before each fleet
	// execution starts — the same test-only hook raild has, so the
	// singleflight and cancellation tests hold a request in flight
	// deterministically. Guarded by mu.
	execGate <-chan struct{}
}

// setExecGate installs the test-only execution gate.
func (f *Coordinator) setExecGate(gate <-chan struct{}) {
	f.mu.Lock()
	f.execGate = gate
	f.mu.Unlock()
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
	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Addr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, err
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
	//lint:allow ctxbg the coordinator's lifetime root: request contexts derive from it and Close cancels it
	baseCtx, baseCancel := context.WithCancel(context.Background())
	ttl := cfg.HeartbeatTTL
	if ttl <= 0 {
		ttl = railctl.DefaultHeartbeatTTL
	}
	f := &Coordinator{
		ln:                ln,
		inFlight:          inFlight,
		batchTimeout:      batchTimeout,
		logf:              cfg.Logf,
		dial:              dial,
		now:               now,
		allowRegistration: cfg.AllowRegistration,
		baseCtx:           baseCtx,
		baseCancel:        baseCancel,
		runs:              make(map[string]*fleetRun),
		conns:             make(map[net.Conn]bool),
		members:           make(map[string]*backend),
	}
	f.tel = telemetry.NewSet(eventRingCapacity, func() int64 { return time.Now().UnixNano() })
	f.inflightG = f.tel.Metrics.Gauge("railfleet_requests_inflight",
		"Requests admitted (validated and joined or started a fleet execution) and awaiting their final reply.")
	f.durations = f.tel.Metrics.HistogramVec("railfleet_request_duration_seconds",
		"Admitted-request wall time from arrival to final reply, by experiment.",
		telemetry.DefLatencyBuckets, "experiment")
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
	opusnet.RegisterStatsMetrics(f.tel.Metrics, "railfleet", f.Stats)
	if len(cfg.Backends) > 0 {
		f.wg.Add(1)
		go f.probeLoop(ttl / 3)
	}
	f.wg.Add(1)
	go f.acceptLoop()
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

// Telemetry exposes the coordinator's metrics registry and event log;
// cmd/railfleet serves Telemetry().Handler() on -metrics-addr, and the
// fleet tests wait deterministically on Telemetry().Events.
func (f *Coordinator) Telemetry() *telemetry.Set { return f.tel }

// reqObs carries one admitted request's observability lifecycle —
// railserve's twin, over the coordinator's instruments.
type reqObs struct {
	tel       *telemetry.Set
	inflightG *telemetry.Gauge
	durations *telemetry.HistogramVec
	id        string
	exp       string
	key       string
	cells     int
	start     time.Time
}

func (f *Coordinator) beginReq(expName, key string, cells int) *reqObs {
	f.inflightG.Inc()
	return &reqObs{
		tel: f.tel, inflightG: f.inflightG, durations: f.durations,
		id:  fmt.Sprintf("r%d", f.reqSeq.Add(1)),
		exp: expName, key: key, cells: cells, start: time.Now(),
	}
}

// admitted emits submitted/deduped; call with no coordinator lock held,
// after the join decision is visible in the counters.
func (ro *reqObs) admitted(shared bool) {
	typ := "submitted"
	if shared {
		typ = "deduped"
	}
	ro.tel.Events.Emit(telemetry.Event{Type: typ, Req: ro.id, Exp: ro.exp, Key: ro.key, Cells: ro.cells})
}

// finish lands the request's one histogram sample and terminal event;
// see the railserve twin for the contract.
func (ro *reqObs) finish(err error, cancelled bool) {
	d := time.Since(ro.start)
	ro.durations.With(ro.exp).Observe(d.Seconds())
	ro.inflightG.Dec()
	typ := "result"
	if cancelled {
		typ = "cancel"
	}
	ev := telemetry.Event{Type: typ, Req: ro.id, Exp: ro.exp, Key: ro.key, Cells: ro.cells, DurationNS: d.Nanoseconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	ro.tel.Events.Emit(ev)
}

// Addr returns the listen address for clients to dial.
func (f *Coordinator) Addr() string { return f.ln.Addr().String() }

// Close stops accepting, tears down live connections, cancels in-flight
// fleet executions, closes the backend connections, and waits for the
// connection handlers. Like raild, executions are abandoned rather than
// waited for (Drain exists for tests).
func (f *Coordinator) Close() error {
	f.mu.Lock()
	f.closed = true
	for conn := range f.conns {
		_ = conn.Close()
	}
	f.mu.Unlock()
	f.baseCancel()
	err := f.ln.Close()
	f.wg.Wait()
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

// Drain waits for in-flight fleet executions and result deliveries.
func (f *Coordinator) Drain() { f.execWG.Wait() }

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
	f.mu.Lock()
	closed := f.closed
	out := opusnet.CacheStatsPayload{
		ExpsExecuted: f.expsExecuted,
		ExpsDeduped:  f.expsDeduped,
	}
	f.mu.Unlock()
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

func (f *Coordinator) acceptLoop() {
	defer f.wg.Done()
	opusnet.AcceptLoop(f.ln,
		func() bool {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.closed
		},
		func(err error) {
			if f.logf != nil {
				f.logf("railfleet: accept: %v", err)
			}
		},
		func(conn net.Conn) bool {
			f.mu.Lock()
			if f.closed {
				f.mu.Unlock()
				return false
			}
			f.conns[conn] = true
			f.mu.Unlock()
			f.wg.Add(1)
			go f.handle(conn)
			return true
		})
}

// handle serves one client connection on opusnet's shared serving
// skeleton — the same writer-goroutine, drop-advisory-frames,
// close-on-wedge, cancellation-registry discipline raild uses (see
// opusnet.ServeConn).
func (f *Coordinator) handle(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		f.mu.Lock()
		delete(f.conns, conn)
		f.mu.Unlock()
		_ = conn.Close()
	}()
	opusnet.ServeConn(conn, f.dispatch)
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
		f.execWG.Add(1)
		go func() { // Stats queries backends; never block the read loop
			defer f.execWG.Done()
			st := f.Stats()
			reply(&opusnet.Message{Type: opusnet.MsgStatsResp, Seq: seq, Cache: &st}, true)
		}()
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

// fleetRun is one in-flight fleet grid execution with its subscribers;
// grid-experiment requests coalesce onto it, keyed by the resolved
// grid. waiters is guarded by the Coordinator mutex; waiters depart on
// cancel/deadline — the last departure cancels the fan-out, which
// cancels the outstanding cells_req waits on the backends.
type fleetRun struct {
	done     chan struct{}
	gridName string
	rows     []scenario.Row
	err      error
	cancel   context.CancelFunc
	waiters  int // guarded by Coordinator.mu

	mu   sync.Mutex
	subs []func(done, total int)
}

func (r *fleetRun) subscribe(fn func(done, total int)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

func (r *fleetRun) broadcast(done, total int) {
	r.mu.Lock()
	subs := r.subs
	r.mu.Unlock()
	for _, fn := range subs {
		fn(done, total)
	}
}

// joinRun coalesces onto (or starts) the fleet execution for the
// resolved grid; started reports whether this request started it.
func (f *Coordinator) joinRun(key string, spec scenario.Spec, grid scenario.Grid) (run *fleetRun, started bool) {
	f.mu.Lock()
	gate := f.execGate
	run, shared := f.runs[key]
	if shared {
		run.waiters++
		f.mu.Unlock()
		return run, false
	}
	runCtx, runCancel := context.WithCancel(f.baseCtx)
	run = &fleetRun{done: make(chan struct{}), gridName: grid.Name, cancel: runCancel, waiters: 1}
	f.runs[key] = run
	f.mu.Unlock()
	f.execWG.Add(1)
	go func() {
		defer f.execWG.Done()
		if gate != nil {
			<-gate // test-only hold, see execGate
		}
		run.rows, run.err = f.executeGrid(runCtx, spec, grid, run.broadcast)
		f.mu.Lock()
		if f.runs[key] == run {
			delete(f.runs, key)
		}
		f.mu.Unlock()
		runCancel()
		close(run.done)
	}()
	return run, true
}

// depart drops one waiter; the last one leaving cancels the fan-out
// and removes the run so a later identical request starts fresh.
func (f *Coordinator) depart(key string, run *fleetRun) {
	f.mu.Lock()
	run.waiters--
	last := run.waiters == 0
	if last && f.runs[key] == run {
		delete(f.runs, key)
	}
	f.mu.Unlock()
	if last {
		run.cancel()
	}
}

// serveExp serves exp_req at the coordinator: grid experiments fan out
// across the fleet (identical grids coalescing onto one fleet
// execution, rendered at the coordinator byte-identically to a raild
// rendering); everything else is proxied to a backend.
func (f *Coordinator) serveExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	seq := msg.Seq
	fail := func(err error) {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: seq, Error: err.Error()}, true)
	}
	req := msg.Exp
	if req == nil {
		fail(fmt.Errorf("railfleet: experiment request without a payload"))
		return
	}
	if _, ok := photonrail.Lookup(req.Name); !ok {
		fail(fmt.Errorf("railfleet: unknown experiment (see photonrail.Experiments; grids run via name %q)", "grid"))
		return
	}
	if !photonrail.IsGridExperiment(req.Name) {
		// A grid on a non-grid experiment is rejected by the backend,
		// exactly as a direct raild request would be.
		f.proxyExp(msg, reply, cs)
		return
	}
	// Resolve the effective grid exactly as the registry would: an
	// explicit spec wins; a built-in grid experiment falls back to its
	// registered grid; bare "grid" falls back to the paper-default
	// custom grid.
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
		fail(err)
		return
	}

	wctx, wcancel := f.waitCtx(req.TimeoutMS)
	if !cs.Register(seq, wcancel) {
		wcancel()
		return
	}
	key := exp.Key("fleet", grid)
	ro := f.beginReq(req.Name, key, grid.CellCount())
	run, started := f.joinRun(key, spec, grid)
	f.mu.Lock()
	if started {
		f.expsExecuted++
	} else {
		f.expsDeduped++
	}
	f.mu.Unlock()
	ro.admitted(!started)
	if f.logf != nil {
		if started {
			f.logf("railfleet: experiment %q: fanning out grid %q", req.Name, grid.Name)
		} else {
			f.logf("railfleet: experiment %q: joined in-flight fleet execution", req.Name)
		}
	}
	run.subscribe(func(done, total int) {
		reply(&opusnet.Message{Type: opusnet.MsgExpProgress, Seq: seq,
			Progress: &opusnet.GridProgress{Done: done, Total: total}}, false)
	})
	f.execWG.Add(1)
	go func() {
		defer f.execWG.Done()
		defer cs.Unregister(seq)
		defer wcancel()
		select {
		case <-run.done:
			if run.err != nil {
				ro.finish(run.err, false)
				fail(run.err)
				return
			}
			payload, err := railserve.RenderExpPayload(req.Name, photonrail.GridExperimentResult(run.gridName, run.rows))
			if err != nil {
				ro.finish(err, false)
				fail(err)
				return
			}
			payload.Shared = !started
			ro.finish(nil, false)
			reply(&opusnet.Message{Type: opusnet.MsgExpResult, Seq: seq, ExpResult: payload}, true)
		case <-wctx.Done():
			f.depart(key, run)
			ro.finish(wctx.Err(), true)
			fail(fmt.Errorf("railfleet: experiment %q: %w", req.Name, wctx.Err()))
		}
	}()
}

// waitCtx bounds one request's wait under the base context.
func (f *Coordinator) waitCtx(timeoutMS int64) (context.Context, context.CancelFunc) {
	if timeoutMS > 0 {
		return context.WithTimeout(f.baseCtx, time.Duration(timeoutMS)*time.Millisecond)
	}
	return context.WithCancel(f.baseCtx)
}

// proxyExp forwards a non-grid experiment to one backend — chosen by
// rendezvous hash of the experiment name so repeat requests land on
// the same warm cache — failing over to the next live backend on
// connection errors. Application-level refusals are returned as-is: a
// retry elsewhere would only repeat them.
func (f *Coordinator) proxyExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	seq := msg.Seq
	req := *msg.Exp
	fail := func(err error) {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: seq, Error: err.Error()}, true)
	}
	wctx, wcancel := f.waitCtx(req.TimeoutMS)
	if !cs.Register(seq, wcancel) {
		wcancel()
		return
	}
	ro := f.beginReq(req.Name, "", 0)
	f.mu.Lock()
	f.expsExecuted++
	f.mu.Unlock()
	ro.admitted(false)
	f.execWG.Add(1)
	go func() {
		defer f.execWG.Done()
		defer cs.Unregister(seq)
		defer wcancel()
		order := f.proxyOrder(req.Name)
		var lastErr error
		for _, b := range order {
			c, err := f.connect(b)
			if err != nil {
				lastErr = err
				continue
			}
			run, err := c.RunExperiment(wctx, req, func(done, total int) {
				reply(&opusnet.Message{Type: opusnet.MsgExpProgress, Seq: seq,
					Progress: &opusnet.GridProgress{Done: done, Total: total}}, false)
			})
			if err != nil {
				if wctx.Err() != nil {
					ro.finish(wctx.Err(), true)
					fail(fmt.Errorf("railfleet: experiment %q: %w", req.Name, wctx.Err()))
					return
				}
				if errors.Is(err, railserve.ErrConnDown) {
					if f.logf != nil {
						f.logf("railfleet: backend %s died serving experiment %q: %v (failing over)", b.address(), req.Name, err)
					}
					b.fail(c)
					f.registry.ProbeFailed(b.id, "failover")
					f.failoversC.Inc()
					f.tel.Events.Emit(telemetry.Event{Type: "failover", Req: ro.id, Exp: req.Name,
						Backend: b.address(), Member: b.id, Err: err.Error()})
					lastErr = err
					continue
				}
				ro.finish(err, false)
				fail(err)
				return
			}
			ro.finish(nil, false)
			reply(&opusnet.Message{Type: opusnet.MsgExpResult, Seq: seq, ExpResult: &opusnet.ExpResultPayload{
				Name: run.Name, Grid: run.Grid,
				Rendered: run.Rendered, RenderedCSV: run.RenderedCSV, RowsJSON: run.RowsJSON,
				Shared: run.Shared,
			}}, true)
			return
		}
		err := fmt.Errorf("railfleet: no live backend served experiment %q (last error: %v)", req.Name, lastErr)
		ro.finish(err, false)
		fail(err)
	}()
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
