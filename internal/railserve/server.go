// Package railserve is the experiment-serving daemon behind cmd/raild:
// a long-running TCP service that executes any experiment in the
// photonrail registry — figure sweeps, window analyses, cost tables,
// scenario grids (the "grid" experiment, or a built-in grid by name) —
// for remote clients over the opusnet framed protocol. Where every
// one-shot CLI run rebuilds the memo cache from scratch, the daemon
// keeps one engine — and its simulation cache — warm across requests,
// shards each request's jobs across the engine's worker pool, and
// streams progress frames back so clients render live progress.
//
// Two layers of deduplication serve concurrent clients:
//
//   - request-level singleflight: identical in-flight requests (keyed
//     on photonrail.ExperimentKey over the experiment name +
//     parameters, or on the grid + index list of a cell subset)
//     coalesce onto one execution, with progress and results fanned
//     out to every subscriber;
//   - simulation-level memoization: distinct requests sharing
//     simulations (or electrical baselines) reuse the engine's cache.
//
// Beyond whole grids and registry experiments, the daemon executes
// cell *subsets* (cells_req: a grid spec plus expansion-order indices)
// — the partial-execution unit internal/railfleet shards a grid into
// when fanning it out across a fleet of these daemons.
//
// Cancellation is first-class: every request may carry a deadline
// (TimeoutMS), a client may send a cancel frame referencing its
// request's Seq, and a dropped connection cancels its requests' waits.
// All three stop only that request's wait — an execution other clients
// joined keeps running for them; only when the last subscriber departs
// is the execution's context cancelled, which stops scheduling new
// simulation jobs (in-flight simulations land in the warm cache either
// way). Server.Close cancels the base context, so shutdown also stops
// abandoned executions from scheduling more work.
//
// The engine is cost-bounded (photonrail.NewBoundedEngine), so the
// daemon is safe to run indefinitely: cold results are evicted LRU-wise
// instead of growing without bound.
package railserve

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"photonrail"
	"photonrail/internal/exp"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// Config parameterizes NewServer.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, serves instead of a fresh TCP listener on
	// Addr — the in-process loopback and fault-injection test harnesses
	// plug pipe-backed listeners in here.
	Listener net.Listener
	// Workers is the engine worker-pool size (0 = NumCPU).
	Workers int
	// MaxCacheCost bounds the engine's memo cache in simulation units
	// (0 = unbounded; see photonrail.NewBoundedEngine).
	MaxCacheCost int64
	// Logf, when non-nil, receives one line per served request.
	Logf func(format string, args ...any)
}

// eventRingCapacity bounds the daemon's request-lifecycle event ring:
// large enough that a deterministic test wait (or an /events tail
// attaching mid-run) sees a complete window over any realistic burst,
// small enough to cap memory; overflow drops oldest and is counted.
const eventRingCapacity = 4096

// Server is the experiment-serving daemon.
type Server struct {
	ln     net.Listener
	engine *photonrail.Engine
	logf   func(format string, args ...any)

	// tel is the daemon's observability surface: sampled stats_resp
	// metrics, live request gauges/histograms, and the lifecycle event
	// ring. Always on; cmd/raild exposes it over HTTP when asked.
	tel       *telemetry.Set
	reqSeq    atomic.Uint64 // request-id allocator ("r1", "r2", ...)
	inflightG *telemetry.Gauge
	durations *telemetry.HistogramVec

	// baseCtx parents every execution and request wait; Close cancels
	// it, so shutdown stops in-flight executions from scheduling more
	// simulation jobs.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*waitRun // experiment/cell-subset key -> running execution
	conns  map[net.Conn]bool
	closed bool
	// expsExecuted counts experiment executions actually started;
	// expsDeduped counts requests coalesced onto one of them. The gap
	// between requests received and expsExecuted is the request-level
	// dedup win the loopback e2e test asserts on. cellsExecuted counts
	// CELLS executed through the subset path (the fleet distribution
	// tests assert every backend got some), cellsDeduped coalesced
	// subset requests.
	expsExecuted, expsDeduped   uint64
	cellsExecuted, cellsDeduped uint64

	// wg tracks the accept loop and connection handlers — everything
	// Close must wait for. Executions and result deliveries are
	// tracked separately (execWG): once every connection is closed their
	// results are undeliverable, so Close abandons them rather than
	// blocking a shutdown on minutes of unwanted simulation.
	wg     sync.WaitGroup
	execWG sync.WaitGroup

	// execGate, when non-nil, is received from before each execution
	// starts — a test-only hook that lets the loopback tests hold a
	// request in flight deterministically. Guarded by mu.
	execGate <-chan struct{}
}

// setExecGate installs the test-only execution gate (under mu, so
// handler goroutines observe it).
func (s *Server) setExecGate(gate <-chan struct{}) {
	s.mu.Lock()
	s.execGate = gate
	s.mu.Unlock()
}

// maxGridName bounds a requested grid's name. The name is echoed into
// the result payload and error messages; without a bound, a name sized
// near the 8 MiB request-frame limit would make the reply frame
// unencodable after the grid had already executed.
const maxGridName = 256

// maxGridCells caps one request's cell count. The result frame carries
// one JSON row per cell inside opusnet's 8 MiB frame limit — rows run
// ~400 bytes and stay under 1 KiB even with pathological coordinate
// and skip-reason strings, so 4096 cells keep the reply below half the
// frame limit. Rejecting over-large grids up front (arithmetically,
// via CellCount, before any expansion) keeps the daemon from being
// OOM-killed by a huge cross-product or from simulating for minutes
// only to fail encoding the reply.
const maxGridCells = 4096

// NewServer starts the daemon listening on cfg.Listener (when set) or
// a fresh TCP listener on cfg.Addr. Close stops it.
func NewServer(cfg Config) (*Server, error) {
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
	//lint:allow ctxbg the daemon's lifetime root: every request context derives from it and Close cancels it
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		ln:         ln,
		engine:     photonrail.NewBoundedEngine(cfg.Workers, cfg.MaxCacheCost),
		logf:       cfg.Logf,
		tel:        telemetry.NewSet(eventRingCapacity, func() int64 { return time.Now().UnixNano() }),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		runs:       make(map[string]*waitRun),
		conns:      make(map[net.Conn]bool),
	}
	s.inflightG = s.tel.Metrics.Gauge("raild_requests_inflight",
		"Requests admitted (validated and joined or started an execution) and awaiting their final reply.")
	s.durations = s.tel.Metrics.HistogramVec("raild_request_duration_seconds",
		"Admitted-request wall time from arrival to final reply, by experiment (cells_req labels as \"cells\").",
		telemetry.DefLatencyBuckets, "experiment")
	stageDur := s.tel.Metrics.HistogramVec("raild_stage_duration_seconds",
		"Wall time of simulations actually computed (cache misses), by pipeline stage.",
		telemetry.DefLatencyBuckets, "stage")
	s.engine.SetStageObserver(func(stage string, seconds float64) {
		if stage == "" {
			stage = "other"
		}
		stageDur.With(stage).Observe(seconds)
	})
	// The sampled stats_resp mirror: a /metrics scrape reports exactly
	// what a stats frame would, from the same Stats call.
	opusnet.RegisterStatsMetrics(s.tel.Metrics, "raild", s.Stats)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Telemetry exposes the daemon's metrics registry and event log;
// cmd/raild serves Telemetry().Handler() on -metrics-addr, and tests
// wait deterministically on Telemetry().Events.
func (s *Server) Telemetry() *telemetry.Set { return s.tel }

// reqObs carries one admitted request's observability through its
// lifecycle: an id, the in-flight gauge, the per-experiment latency
// histogram, and the lifecycle events. Exactly one finish call balances
// each begin.
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

// beginReq admits one request into the observability layer. expName is
// the histogram label ("cells" for the subset path); cells is the
// request's cell count when it has one.
func (s *Server) beginReq(expName, key string, cells int) *reqObs {
	s.inflightG.Inc()
	return &reqObs{
		tel: s.tel, inflightG: s.inflightG, durations: s.durations,
		id:  fmt.Sprintf("r%d", s.reqSeq.Add(1)),
		exp: expName, key: key, cells: cells, start: time.Now(),
	}
}

// admitted emits the request's submitted/deduped lifecycle event. Call
// it with no server lock held, after the join decision is visible in
// the counters — observing the event therefore guarantees a subsequent
// identical request coalesces.
func (ro *reqObs) admitted(shared bool) {
	typ := "submitted"
	if shared {
		typ = "deduped"
	}
	ro.tel.Events.Emit(telemetry.Event{Type: typ, Req: ro.id, Exp: ro.exp, Key: ro.key, Cells: ro.cells})
}

// finish observes the request's wall time into the latency histogram
// (every admitted request lands exactly one sample, result or error —
// railbench counts on that) and emits the terminal lifecycle event:
// "result", or "cancel" when the wait ended by deadline, cancel frame,
// or teardown.
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
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Engine exposes the daemon's engine (tests assert on its cache stats).
func (s *Server) Engine() *photonrail.Engine { return s.engine }

// Stats reports the daemon's serving telemetry: the engine's cache
// counters plus the request-level dedup counters.
func (s *Server) Stats() opusnet.CacheStatsPayload {
	st := s.engine.CacheStats()
	s.mu.Lock()
	expsExecuted, expsDeduped := s.expsExecuted, s.expsDeduped
	cellsExecuted, cellsDeduped := s.cellsExecuted, s.cellsDeduped
	s.mu.Unlock()
	return opusnet.CacheStatsPayload{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		InFlight:      st.InFlight,
		ExpsExecuted:  expsExecuted,
		ExpsDeduped:   expsDeduped,
		CellsExecuted: cellsExecuted,
		CellsDeduped:  cellsDeduped,

		BuildHits:       st.Build.Hits,
		BuildMisses:     st.Build.Misses,
		ProvisionHits:   st.Provision.Hits,
		ProvisionMisses: st.Provision.Misses,
		TimeHits:        st.Time.Hits,
		TimeMisses:      st.Time.Misses,
		SeedHits:        st.SeedHits,
		SeedMisses:      st.SeedMisses,
	}
}

// Close stops accepting, tears down live connections, cancels the base
// context (so in-flight executions stop scheduling new simulation
// jobs), and waits for the connection handlers to finish. Executions
// are NOT waited for: their results are undeliverable once the
// connections are gone, so they wind down promptly under the cancelled
// context — a SIGTERM never blocks on minutes of abandoned simulation.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.baseCancel()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Drain waits for in-flight executions and result deliveries to
// finish. Tests use it so abandoned executions never outlive the test
// that started them; a production shutdown calls Close alone.
func (s *Server) Drain() { s.execWG.Wait() }

// DrainCtx is Drain bounded by ctx — the graceful-shutdown wait: raild
// announces its drain to the coordinator, then waits here for in-flight
// executions to finish (bounded by -drain-timeout) before closing.
func (s *Server) DrainCtx(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Capacity reports the engine's worker-pool size — the weight a
// registered backend advertises for capacity-weighted sharding.
func (s *Server) Capacity() int { return s.engine.Workers() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	opusnet.AcceptLoop(s.ln,
		func() bool {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.closed
		},
		func(err error) {
			if s.logf != nil {
				s.logf("railserve: accept: %v", err)
			}
		},
		func(conn net.Conn) bool {
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				return false
			}
			s.conns[conn] = true
			s.mu.Unlock()
			s.wg.Add(1)
			go s.handle(conn)
			return true
		})
}

// handle serves one client connection on opusnet's shared serving
// skeleton (writer goroutine, drop-advisory-frames, close-on-wedge,
// per-connection cancellation registry — see opusnet.ServeConn).
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	opusnet.ServeConn(conn, s.dispatch)
}

func (s *Server) dispatch(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	switch msg.Type {
	case opusnet.MsgExpReq:
		s.serveExp(msg, reply, cs)
	case opusnet.MsgCellsReq:
		s.serveCells(msg, reply, cs)
	case opusnet.MsgCancel:
		// No reply: the cancelled request itself terminates with MsgErr,
		// and a cancel that raced completion has nothing to do.
		cs.CancelSeq(msg.Seq)
	case opusnet.MsgStatsReq:
		st := s.Stats()
		reply(&opusnet.Message{Type: opusnet.MsgStatsResp, Seq: msg.Seq, Cache: &st}, true)
	default:
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq,
			Error: fmt.Sprintf("railserve: unsupported message type %q", msg.Type)}, true)
	}
}

// waitRun is one in-flight experiment or cell-subset execution with
// its subscribers; payload holds the path-specific result
// (*opusnet.ExpResultPayload or *opusnet.CellsResultPayload). waiters
// counts the requests currently awaiting the result; when the last one
// departs before completion, the execution's context is cancelled —
// the request-level mirror of the engine cache's detached
// singleflight. waiters is guarded by the Server mutex (not r.mu), so
// the last-departure decision and the run's removal from the runs map
// are atomic: a later identical request can never join a cancelled
// run.
type waitRun struct {
	done    chan struct{}
	payload any
	err     error
	cancel  context.CancelFunc
	waiters int // guarded by Server.mu

	mu   sync.Mutex
	subs []func(done, total int)
}

// subscribe adds a progress listener; fan-out calls are serialized per
// run (the engine already serializes its progress hook, but subscribers
// can be added mid-run).
func (r *waitRun) subscribe(fn func(done, total int)) {
	r.mu.Lock()
	r.subs = append(r.subs, fn)
	r.mu.Unlock()
}

func (r *waitRun) broadcast(done, total int) {
	r.mu.Lock()
	subs := r.subs
	r.mu.Unlock()
	for _, fn := range subs {
		fn(done, total)
	}
}

// departRun drops one waiter from a run; the last waiter leaving
// cancels the execution (stopping new simulation jobs from being
// scheduled — simulations already in flight finish into the warm
// cache) and removes it from the runs map in the same critical
// section, so a subsequent identical request starts a fresh execution
// instead of inheriting a spurious cancellation error. Cancelling a
// run that already completed is a harmless no-op.
func (s *Server) departRun(key string, run *waitRun) {
	s.mu.Lock()
	run.waiters--
	last := run.waiters == 0
	if last && s.runs[key] == run {
		delete(s.runs, key)
	}
	s.mu.Unlock()
	if last {
		run.cancel()
	}
}

// serveRun is the join-or-start skeleton of both request paths
// (experiments and cell subsets): coalesce onto an identical in-flight
// execution under key or start one via execute (detached, under the
// server's base context), then deliver the result without blocking the
// connection's read loop. The request's wait — not the shared
// execution — is bounded by its timeoutMS deadline, a MsgCancel frame,
// and the connection's lifetime; waitErr shapes the error a bounded
// wait reports. count runs under s.mu with the join
// decision (counters only — it must not block); logDecision, when
// non-nil, runs after the lock is released, so a slow Logf sink never
// wedges the server. resultMsg shapes the final frame from the run's
// payload.
func (s *Server) serveRun(
	ro *reqObs,
	key string, seq uint64, timeoutMS int64,
	reply func(*opusnet.Message, bool), cs *opusnet.ConnState,
	count func(shared bool),
	logDecision func(shared bool),
	execute func(ctx context.Context, run *waitRun) (any, error),
	resultMsg func(payload any, shared bool) *opusnet.Message,
	waitErr func(err error) error,
) {
	fail := func(err error) {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: seq, Error: err.Error()}, true)
	}
	// The request's wait: bounded by the per-request deadline, the
	// cancel frame, the connection, and server shutdown.
	var wctx context.Context
	var wcancel context.CancelFunc
	if timeoutMS > 0 {
		wctx, wcancel = context.WithTimeout(s.baseCtx, time.Duration(timeoutMS)*time.Millisecond)
	} else {
		wctx, wcancel = context.WithCancel(s.baseCtx)
	}
	if !cs.Register(seq, wcancel) {
		wcancel() // connection already torn down
		ro.finish(fmt.Errorf("railserve: connection closed before admission"), true)
		return
	}

	s.mu.Lock()
	gate := s.execGate
	run, shared := s.runs[key]
	if shared {
		run.waiters++ // under s.mu, like the last-departure decision
		count(true)
		s.mu.Unlock()
	} else {
		runCtx, runCancel := context.WithCancel(s.baseCtx)
		run = &waitRun{done: make(chan struct{}), cancel: runCancel, waiters: 1}
		s.runs[key] = run
		count(false)
		s.mu.Unlock()
		s.execWG.Add(1)
		go func() {
			defer s.execWG.Done()
			if gate != nil {
				<-gate // test-only hold, see execGate
			}
			run.payload, run.err = execute(runCtx, run)
			s.mu.Lock()
			// departRun may already have removed (or a fresh run may
			// have replaced) this key; only delete our own entry.
			if s.runs[key] == run {
				delete(s.runs, key)
			}
			s.mu.Unlock()
			runCancel()
			close(run.done)
		}()
	}
	if logDecision != nil {
		logDecision(shared)
	}
	ro.admitted(shared)

	run.subscribe(func(done, total int) {
		reply(&opusnet.Message{Type: opusnet.MsgExpProgress, Seq: seq,
			Progress: &opusnet.GridProgress{Done: done, Total: total}}, false)
	})
	s.execWG.Add(1)
	go func() {
		defer s.execWG.Done()
		defer cs.Unregister(seq)
		defer wcancel()
		select {
		case <-run.done:
			ro.finish(run.err, false)
			if run.err != nil {
				fail(run.err)
				return
			}
			reply(resultMsg(run.payload, shared), true)
		case <-wctx.Done():
			// Only this request's wait ends: the shared execution keeps
			// running for its other subscribers (and is cancelled only
			// if this was the last one).
			s.departRun(key, run)
			ro.finish(wctx.Err(), true)
			fail(waitErr(wctx.Err()))
		}
	}()
}

// ValidateGridSpec applies the daemon's request bounds to a grid spec:
// name length, resolvability, well-formedness, and the arithmetic cell
// cap (see maxGridCells). The fleet coordinator applies the same
// bounds before fanning a grid out, so a request one daemon would
// refuse is refused by the fleet too — identically, before any
// backend sees it.
func ValidateGridSpec(spec scenario.Spec) (scenario.Grid, error) {
	if len(spec.Name) > maxGridName {
		// Deliberately does not echo the name: the refusal frame must
		// stay encodable.
		return scenario.Grid{}, fmt.Errorf("railserve: grid name of %d bytes exceeds the %d-byte limit", len(spec.Name), maxGridName)
	}
	grid, err := spec.Resolve()
	if err != nil {
		return scenario.Grid{}, err
	}
	if err := grid.Validate(); err != nil {
		return scenario.Grid{}, err
	}
	if cells := grid.CellCount(); cells > maxGridCells {
		return scenario.Grid{}, fmt.Errorf("railserve: grid %q expands to %d cells, exceeding the %d-cell request cap",
			grid.Name, cells, maxGridCells)
	}
	return grid, nil
}

// serveExp runs a registered photonrail experiment for one request:
// validate, then hand the cancellable join-or-start skeleton
// (serveRun) an execute closure that runs the registry entry and
// renders its result server-side.
func (s *Server) serveExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	seq := msg.Seq
	fail := func(err error) {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: seq, Error: err.Error()}, true)
	}
	req := msg.Exp
	if req == nil {
		fail(fmt.Errorf("railserve: experiment request without a payload"))
		return
	}
	e, ok := photonrail.Lookup(req.Name)
	if !ok {
		// Deliberately does not echo arbitrary names at frame-limit
		// lengths; the registry spelling list is short and fixed.
		fail(fmt.Errorf("railserve: unknown experiment (see photonrail.Experiments; grids run via name %q)", "grid"))
		return
	}
	p := photonrail.Params{
		Iterations:       req.Iterations,
		WindowIterations: req.WindowIterations,
		LatenciesMS:      req.LatenciesMS,
		Rail:             req.Rail,
		GPUs:             req.GPUs,
	}
	if req.Grid != nil {
		if !photonrail.IsGridExperiment(req.Name) {
			fail(fmt.Errorf("railserve: experiment %q does not take a grid", req.Name))
			return
		}
		spec := *req.Grid
		if _, err := ValidateGridSpec(spec); err != nil {
			fail(err)
			return
		}
		p.Grid = &spec
	}
	// The canonical experiment/params hash: the same key the railgate
	// front door content-addresses stored results under, so in-flight
	// coalescing here and cross-restart dedup there agree by construction.
	key := photonrail.ExperimentKey(req.Name, p)

	s.serveRun(s.beginReq(req.Name, key, 0), key, seq, req.TimeoutMS, reply, cs,
		func(shared bool) {
			if shared {
				s.expsDeduped++
			} else {
				s.expsExecuted++
			}
		},
		func(shared bool) {
			if s.logf == nil {
				return
			}
			if shared {
				s.logf("railserve: experiment %q: joined in-flight execution", req.Name)
			} else {
				s.logf("railserve: experiment %q: executing", req.Name)
			}
		},
		func(ctx context.Context, run *waitRun) (any, error) {
			params := p
			params.OnProgress = run.broadcast
			res, err := e.Run(ctx, s.engine, params)
			if err != nil {
				return nil, err
			}
			return RenderExpPayload(req.Name, res)
		},
		func(payload any, shared bool) *opusnet.Message {
			p := *(payload.(*opusnet.ExpResultPayload))
			p.Shared = shared
			return &opusnet.Message{Type: opusnet.MsgExpResult, Seq: seq, ExpResult: &p}
		},
		func(err error) error {
			return fmt.Errorf("railserve: experiment %q: %w", req.Name, err)
		})
}

// serveCells executes a subset of a grid's cells — the fleet
// coordinator's partial-execution path. Identical subset requests
// coalesce (singleflight keyed on the resolved grid AND the index
// list), cells simulate on the shared bounded engine cache, and the
// wait honors the same deadline/cancel/teardown contract as the
// experiment path.
func (s *Server) serveCells(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	seq := msg.Seq
	fail := func(err error) {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: seq, Error: err.Error()}, true)
	}
	req := msg.Cells
	if req == nil || req.Spec == nil {
		fail(fmt.Errorf("railserve: cells request without a grid spec"))
		return
	}
	grid, err := ValidateGridSpec(*req.Spec)
	if err != nil {
		fail(err)
		return
	}
	if len(req.Indices) == 0 {
		fail(fmt.Errorf("railserve: cells request for grid %q selects no cells", grid.Name))
		return
	}
	total := grid.CellCount()
	seen := make(map[int]bool, len(req.Indices))
	for _, idx := range req.Indices {
		if idx < 0 || idx >= total {
			fail(fmt.Errorf("railserve: cell index %d outside grid %q (%d cells)", idx, grid.Name, total))
			return
		}
		if seen[idx] {
			fail(fmt.Errorf("railserve: duplicate cell index %d for grid %q", idx, grid.Name))
			return
		}
		seen[idx] = true
	}
	indices := append([]int(nil), req.Indices...)
	key := exp.Key("cells", grid, indices)

	s.serveRun(s.beginReq("cells", key, len(indices)), key, seq, req.TimeoutMS, reply, cs,
		func(shared bool) {
			if shared {
				s.cellsDeduped++
			} else {
				s.cellsExecuted += uint64(len(indices))
			}
		},
		func(shared bool) {
			if s.logf == nil {
				return
			}
			if shared {
				s.logf("railserve: grid %q: joined in-flight %d-cell subset", grid.Name, len(indices))
			} else {
				s.logf("railserve: grid %q: executing %d-cell subset", grid.Name, len(indices))
			}
		},
		func(ctx context.Context, run *waitRun) (any, error) {
			results, err := s.engine.RunCellsProgressCtx(ctx, grid, indices, run.broadcast)
			if err != nil {
				return nil, err
			}
			res := photonrail.GridResult{Grid: grid, Cells: results}
			return &opusnet.CellsResultPayload{Name: grid.Name, Indices: indices, Rows: res.Rows()}, nil
		},
		func(payload any, shared bool) *opusnet.Message {
			p := *(payload.(*opusnet.CellsResultPayload))
			p.Shared = shared
			return &opusnet.Message{Type: opusnet.MsgCellsResult, Seq: seq, CellsResult: &p}
		},
		func(err error) error {
			return fmt.Errorf("railserve: grid %q cells: %w", grid.Name, err)
		})
}

// RenderExpPayload renders a completed experiment once, server-side,
// into the exact bytes each client output format prints. raild and the
// fleet coordinator both shape exp_result through it, so a fleet's
// merged grid renders byte-identically to a single daemon's.
func RenderExpPayload(name string, res *photonrail.ExperimentResult) (*opusnet.ExpResultPayload, error) {
	var text, csv, rows bytes.Buffer
	if err := res.RenderText(&text); err != nil {
		return nil, err
	}
	if err := res.RenderCSV(&csv); err != nil {
		return nil, err
	}
	if err := res.RenderJSON(&rows); err != nil {
		return nil, err
	}
	return &opusnet.ExpResultPayload{
		Name:        name,
		Grid:        res.Grid,
		Rendered:    text.String(),
		RenderedCSV: csv.String(),
		RowsJSON:    rows.String(),
	}, nil
}
