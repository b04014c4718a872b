package railserve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/telemetry"
)

// eventRingCapacity bounds a server's request-lifecycle event ring:
// large enough that a deterministic test wait (or an /events tail
// attaching mid-run) sees a complete window over any realistic burst —
// a fig8-5d fleet fan-out emits a few hundred events — and small
// enough to cap memory; overflow drops oldest and is counted.
const eventRingCapacity = 4096

// progressInterval is the least time between two progress ticks one
// execution forwards to its waiters, counted from Execute's start and
// then from each forwarded tick. Ticks are advisory and their readers
// (railclient -progress, railgate's per-run SSE, a coordinator's own
// waiters) are paced for people, so a request that finishes sooner
// sends none, and a long grid still ticks up to 20 times a second.
const progressInterval = 50 * time.Millisecond

// errConnClosed ends a request whose connection was torn down before
// the request was admitted.
var errConnClosed = errors.New("railserve: connection closed before admission")

// CoreConfig parameterizes NewCore.
type CoreConfig struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Listener, when non-nil, serves instead of a fresh TCP listener on
	// Addr.
	Listener net.Listener
	// Prefix names the server's metrics ("raild" serves
	// raild_requests_inflight, "railfleet" railfleet_requests_inflight)
	// and its accept-error log lines.
	Prefix string
	// Logf, when non-nil, receives one line per admitted request.
	Logf func(format string, args ...any)
}

// Core is the serving skeleton raild (Server) and the fleet coordinator
// (internal/railfleet) are both built on: the request-level
// singleflight (Serve), per-request observability, and the WaitGroup
// behind Drain, over an opusnet.Listener. The listener accepts and
// tracks the connections, and its Context is the base context every
// execution and request wait derives from.
//
// Close is the listener's: it stops accepting, tears down live
// connections, cancels the base context (so in-flight executions stop
// scheduling new work), and waits for the connection handlers to
// finish. Executions are NOT waited for: their results are
// undeliverable once the connections are gone, so they wind down
// promptly under the cancelled context — a SIGTERM never blocks on
// minutes of abandoned simulation.
//
// Core owns one request contract for both servers: identical in-flight
// requests coalesce onto one execution, each request's wait is bounded
// by its deadline, a cancel frame and its connection, the last
// departing waiter cancels the execution, and progress fans out, at
// most one tick per progressInterval, to exactly the waiters still
// subscribed.
type Core struct {
	lis    *opusnet.Listener
	prefix string
	logf   func(format string, args ...any)

	// tel is the server's observability surface: sampled stats_resp
	// metrics, live request gauges/histograms, and the lifecycle event
	// ring.
	tel       *telemetry.Set
	reqSeq    atomic.Uint64 // request-id allocator ("r1", "r2", ...)
	inflightG *telemetry.Gauge
	durations *telemetry.HistogramVec

	mu   sync.Mutex
	runs map[string]*waitRun // singleflight key -> running execution
	// execGate, when non-nil, is received from before each execution
	// starts — a test-only hook that holds a request in flight
	// deterministically.
	execGate <-chan struct{}
	// now is the progress throttle's clock: time.Now, unless a test
	// installs its own with setClock.
	now func() time.Time

	// execWG tracks executions and result deliveries, which Close
	// abandons and Drain waits for.
	execWG sync.WaitGroup
}

// NewCore listens on cfg.Listener (when set) or a fresh TCP listener on
// cfg.Addr and builds the request instruments under cfg.Prefix. It
// accepts nothing until Start.
func NewCore(cfg CoreConfig) (*Core, error) {
	var logf func(err error)
	if cfg.Logf != nil {
		logf = func(err error) { cfg.Logf("%s: accept: %v", cfg.Prefix, err) }
	}
	lis, err := opusnet.Listen(cfg.Addr, cfg.Listener, logf)
	if err != nil {
		return nil, err
	}
	c := &Core{
		lis:    lis,
		prefix: cfg.Prefix,
		logf:   cfg.Logf,
		tel:    telemetry.NewSet(eventRingCapacity, func() int64 { return time.Now().UnixNano() }),
		runs:   make(map[string]*waitRun),
		now:    time.Now,
	}
	c.inflightG = c.tel.Metrics.Gauge(cfg.Prefix+"_requests_inflight",
		"Requests admitted (validated and joined or started an execution) and awaiting their final reply.")
	c.durations = c.tel.Metrics.HistogramVec(cfg.Prefix+"_request_duration_seconds",
		"Admitted-request wall time from arrival to final reply, by experiment (cells_req labels as \"cells\").",
		telemetry.DefLatencyBuckets, "experiment")
	return c, nil
}

// Start registers the sampled stats_resp mirror — a /metrics scrape
// reports exactly what a stats frame would, from the same stats call —
// and begins accepting, serving each connection's frames through
// dispatch on opusnet.ServeConn.
func (c *Core) Start(dispatch opusnet.Dispatch, stats func() opusnet.CacheStatsPayload) {
	opusnet.RegisterStatsMetrics(c.tel.Metrics, c.prefix, stats)
	c.lis.Start(dispatch)
}

// Addr returns the listen address for clients to dial.
func (c *Core) Addr() string { return c.lis.Addr() }

// Context is the server's base context: Close cancels it.
func (c *Core) Context() context.Context { return c.lis.Context() }

// Closed reports whether Close has begun.
func (c *Core) Closed() bool { return c.lis.Closed() }

// Close stops accepting, tears down live connections, cancels Context
// and waits for the connection handlers; see the type's doc.
func (c *Core) Close() error { return c.lis.Close() }

// Telemetry exposes the metrics registry and event log; the daemons
// serve Telemetry().Handler() on -metrics-addr, and tests wait
// deterministically on Telemetry().Events.
func (c *Core) Telemetry() *telemetry.Set { return c.tel }

// Drain waits for in-flight executions and result deliveries to
// finish. Tests use it so abandoned executions never outlive the test
// that started them; a production shutdown calls Close alone.
func (c *Core) Drain() { c.execWG.Wait() }

// DrainCtx is Drain bounded by ctx — the graceful-shutdown wait: raild
// announces its drain to the coordinator, then waits here for in-flight
// executions to finish (bounded by -drain-timeout) before closing.
func (c *Core) DrainCtx(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		c.execWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Go runs fn on its own goroutine, tracked like an execution (Drain
// waits for it) — for replies that must not block a connection's read
// loop.
func (c *Core) Go(fn func()) {
	c.execWG.Add(1)
	go func() {
		defer c.execWG.Done()
		fn()
	}()
}

// setExecGate installs the test-only execution gate.
func (c *Core) setExecGate(gate <-chan struct{}) {
	c.mu.Lock()
	c.execGate = gate
	c.mu.Unlock()
}

// setClock installs the test-only progress-throttle clock; executions
// started afterwards read it.
func (c *Core) setClock(now func() time.Time) {
	c.mu.Lock()
	c.now = now
	c.mu.Unlock()
}

// Request is one validated request handed to Serve.
type Request struct {
	// Seq is the request frame's sequence number; TimeoutMS, when
	// positive, bounds the request's wait (not the shared execution).
	Seq       uint64
	TimeoutMS int64
	// Key is the singleflight key: requests in flight under one key
	// share one execution.
	Key string
	// Exp labels the latency histogram and the lifecycle events
	// ("cells" for a cell subset); Cells is the request's cell count
	// when it has one.
	Exp   string
	Cells int
	// Desc names the request in log lines and in the error of a wait
	// that ends early, e.g. `railserve: experiment "fig8"`.
	Desc string
	// Count records the join decision in the server's counters (shared:
	// the request joined an in-flight execution). It runs before the
	// admitted event, so observing that event guarantees the counters.
	Count func(shared bool)
	// Execute runs a started execution under a context that Close, or
	// the last waiter departing, cancels; progress ticks every waiter
	// still subscribed, at most once per progressInterval. Its payload
	// is shared by all waiters.
	Execute func(ctx context.Context, progress func(done, total int)) (any, error)
	// Result shapes one waiter's final frame from the payload.
	Result func(payload any, shared bool) *opusnet.Message
}

// DedupCounters counts one request path's join decisions: work started
// and requests coalesced onto work already in flight.
type DedupCounters struct{ Executed, Deduped atomic.Uint64 }

// Count returns a Request.Count crediting weight to Executed when the
// request started an execution, and one to Deduped when it joined one.
func (d *DedupCounters) Count(weight uint64) func(shared bool) {
	return func(shared bool) {
		if shared {
			d.Deduped.Add(1)
		} else {
			d.Executed.Add(weight)
		}
	}
}

// reqObs carries one admitted request's observability through its
// lifecycle: an id, the in-flight gauge, the per-experiment latency
// histogram, and the lifecycle events. Exactly one finish call balances
// each beginReq.
type reqObs struct {
	c     *Core
	r     *Request
	id    string
	start time.Time
}

func (c *Core) beginReq(r *Request) *reqObs {
	c.inflightG.Inc()
	return &reqObs{c: c, r: r, id: fmt.Sprintf("r%d", c.reqSeq.Add(1)), start: time.Now()}
}

// admitted emits the request's submitted/deduped lifecycle event. Call
// it with no lock held, after the join decision is visible in the
// counters and the waiter is subscribed to progress — observing the
// event therefore guarantees a subsequent identical request coalesces,
// and that the waiter sees every tick forwarded from then on.
func (ro *reqObs) admitted(shared bool) {
	typ := "submitted"
	if shared {
		typ = "deduped"
	}
	ro.c.tel.Events.Emit(telemetry.Event{Type: typ, Req: ro.id, Exp: ro.r.Exp, Key: ro.r.Key, Cells: ro.r.Cells})
}

// finish observes the request's wall time into the latency histogram
// (every admitted request lands exactly one sample, result or error —
// TestScrapeCountsConcurrentRequests counts on that) and emits the terminal lifecycle event:
// "result", or "cancel" when the wait ended by deadline, cancel frame,
// or teardown.
func (ro *reqObs) finish(err error, cancelled bool) {
	d := time.Since(ro.start)
	ro.c.durations.With(ro.r.Exp).Observe(d.Seconds())
	ro.c.inflightG.Dec()
	typ := "result"
	if cancelled {
		typ = "cancel"
	}
	ev := telemetry.Event{Type: typ, Req: ro.id, Exp: ro.r.Exp, Key: ro.r.Key, Cells: ro.r.Cells, DurationNS: d.Nanoseconds()}
	if err != nil {
		ev.Err = err.Error()
	}
	ro.c.tel.Events.Emit(ev)
}

// waitRun is one in-flight execution with its waiters; payload holds
// the path-specific result. waiters counts the requests currently
// awaiting the result; when the last one departs before completion,
// the execution's context is cancelled — the request-level mirror of
// the engine cache's detached singleflight. waiters is guarded by
// Core.mu (not r.mu), so the last-departure decision and the run's
// removal from the runs map are atomic: a later identical request can
// never join a cancelled run.
type waitRun struct {
	done    chan struct{}
	payload any
	err     error
	cancel  context.CancelFunc
	waiters int // guarded by Core.mu
	now     func() time.Time

	mu   sync.Mutex
	subs []*func(done, total int)
	last time.Time // Execute's start, then the last forwarded tick
}

// subscribe adds a waiter's progress listener and returns its removal.
// Fan-out runs under r.mu — the listeners are Serve's progress replies,
// which never block (see opusnet.ServeConn) — so once unsubscribe
// returns the listener has seen its last tick: a departed waiter gets
// no frame after its error.
func (r *waitRun) subscribe(fn func(done, total int)) (unsubscribe func()) {
	sub := &fn
	r.mu.Lock()
	r.subs = append(r.subs, sub)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, s := range r.subs {
			if s == sub {
				r.subs = append(r.subs[:i], r.subs[i+1:]...)
				return
			}
		}
	}
}

// broadcast forwards a tick to every waiter still subscribed, unless
// it comes less than progressInterval after Execute's start or the
// last forwarded tick; such a tick is dropped.
func (r *waitRun) broadcast(done, total int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.now()
	if t.Sub(r.last) < progressInterval {
		return
	}
	r.last = t
	for _, fn := range r.subs {
		(*fn)(done, total)
	}
}

// join coalesces onto the execution in flight under r.Key or starts
// one, detached under the base context.
func (c *Core) join(r *Request) (run *waitRun, shared bool) {
	c.mu.Lock()
	if run, ok := c.runs[r.Key]; ok {
		run.waiters++ // under c.mu, like the last-departure decision
		c.mu.Unlock()
		return run, true
	}
	gate := c.execGate
	ctx, cancel := context.WithCancel(c.Context())
	run = &waitRun{done: make(chan struct{}), cancel: cancel, waiters: 1, now: c.now}
	c.runs[r.Key] = run
	c.mu.Unlock()
	c.execWG.Add(1)
	go func() {
		defer c.execWG.Done()
		if gate != nil {
			<-gate // test-only hold, see execGate
		}
		run.last = run.now() // before Execute, so before any tick reads it
		run.payload, run.err = r.Execute(ctx, run.broadcast)
		c.mu.Lock()
		// departRun may already have removed (or a fresh run may have
		// replaced) this key; only delete our own entry.
		if c.runs[r.Key] == run {
			delete(c.runs, r.Key)
		}
		c.mu.Unlock()
		cancel()
		close(run.done)
	}()
	return run, false
}

// departRun drops one waiter from a run; the last waiter leaving
// cancels the execution and removes it from the runs map in the same
// critical section, so a subsequent identical request starts a fresh
// execution instead of inheriting a spurious cancellation error.
// Cancelling a run that already completed is a harmless no-op.
func (c *Core) departRun(key string, run *waitRun) {
	c.mu.Lock()
	run.waiters--
	last := run.waiters == 0
	if last && c.runs[key] == run {
		delete(c.runs, key)
	}
	c.mu.Unlock()
	if last {
		run.cancel()
	}
}

// Serve admits one request: coalesce onto an identical in-flight
// execution or start one, then deliver the result without blocking the
// connection's read loop. The request's wait — not the shared
// execution — is bounded by r.TimeoutMS, a MsgCancel frame, the
// connection's lifetime and Close; a wait that ends early unsubscribes
// from progress, departs the run, and replies with an error.
func (c *Core) Serve(r *Request, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	ro := c.beginReq(r)
	fail := func(err error) {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: r.Seq, Error: err.Error()}, true)
	}
	var wctx context.Context
	var wcancel context.CancelFunc
	if r.TimeoutMS > 0 {
		wctx, wcancel = context.WithTimeout(c.Context(), time.Duration(r.TimeoutMS)*time.Millisecond)
	} else {
		wctx, wcancel = context.WithCancel(c.Context())
	}
	if !cs.Register(r.Seq, wcancel) {
		wcancel() // connection already torn down
		ro.finish(errConnClosed, true)
		return
	}

	run, shared := c.join(r)
	unsubscribe := run.subscribe(func(done, total int) {
		reply(&opusnet.Message{Type: opusnet.MsgExpProgress, Seq: r.Seq,
			Progress: &opusnet.GridProgress{Done: done, Total: total}}, false)
	})
	r.Count(shared)
	if c.logf != nil {
		if shared {
			c.logf("%s: joined in-flight execution", r.Desc)
		} else {
			c.logf("%s: executing", r.Desc)
		}
	}
	ro.admitted(shared)

	c.execWG.Add(1)
	go func() {
		defer c.execWG.Done()
		defer cs.Unregister(r.Seq)
		defer wcancel()
		select {
		case <-run.done:
			unsubscribe()
			ro.finish(run.err, false)
			if run.err != nil {
				fail(run.err)
				return
			}
			reply(r.Result(run.payload, shared), true)
		case <-wctx.Done():
			// Only this request's wait ends: the shared execution keeps
			// running for its other waiters (and is cancelled only if
			// this was the last one).
			unsubscribe()
			c.departRun(r.Key, run)
			ro.finish(wctx.Err(), true)
			fail(fmt.Errorf("%s: %w", r.Desc, wctx.Err()))
		}
	}()
}

// ExpResult shapes the exp_result answering req for one waiter from an
// execution's rendered payload: the copy carries the waiter's own
// experiment name (a fleet grid execution may serve requests that
// named it differently) and whether the waiter joined an execution in
// flight, and its rows travel as the frame's attachment when req set
// WantRaw.
func ExpResult(req *opusnet.Message) func(payload any, shared bool) *opusnet.Message {
	return func(payload any, shared bool) *opusnet.Message {
		p := *(payload.(*opusnet.ExpResultPayload))
		p.Name, p.Shared = req.Exp.Name, shared
		m := &opusnet.Message{Type: opusnet.MsgExpResult, Seq: req.Seq, ExpResult: &p}
		if req.WantRaw && p.RowsJSON != "" {
			m.Raw, p.RowsJSON = []byte(p.RowsJSON), ""
		}
		return m
	}
}
