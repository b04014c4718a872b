// Package railgate is the multi-tenant HTTP/JSON front door to the
// photonrail experiment fleet — the upgrade path for clients that will
// never speak the opusnet framed protocol. It fronts a raild daemon, a
// railfleet coordinator, or an in-process loopback daemon (anything
// whose client satisfies Runner) and exposes the experiment registry
// over plain HTTP:
//
//	GET  /v1/experiments           — the registry catalog (JSON, or the
//	                                 railsweep -list text via Accept)
//	POST /v1/experiments/{name}    — run an experiment; body is the
//	                                 JSON parameter payload (the wire
//	                                 ExpRequestPayload shape); ?async=1
//	                                 returns 202 + run id immediately
//	GET  /v1/runs/{id}             — the completed result, negotiated:
//	                                 JSON rows, CSV, or aligned text
//	GET  /v1/runs/{id}/events      — the run's lifecycle + per-cell
//	                                 progress as SSE
//	GET  /metrics, /events         — the gateway's own observability
//
// Multi-tenancy: every request carries a tenant (X-Tenant header;
// "default" otherwise). Each tenant has a token-bucket rate limit and a
// queue-depth cap — exceeding either refuses with 429 + Retry-After —
// and execution slots are dispatched by a weighted start-time-fair
// queue (see fairQueue), so one tenant's 4096-cell grid cannot starve
// another tenant's fig4.
//
// Durability: completed results spill to a content-addressed
// resultstore keyed by photonrail.ExperimentKey — the same canonical
// hash the daemon's request-level singleflight coalesces on. An
// identical request therefore dedups at every distance: in flight on
// the daemon, across gateway requests, and across full daemon restarts
// (served from disk with zero new simulations).
package railgate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/resultstore"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// Runner executes one experiment request — the gateway's view of a
// backend. *railserve.Client satisfies it directly, so the gateway
// fronts a raild daemon or a railfleet coordinator with the full
// cancellation, deadline, and singleflight semantics of the framed
// protocol; tests plug scripted runners in.
type Runner interface {
	RunExperiment(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*railserve.ExpRun, error)
}

var _ Runner = (*railserve.Client)(nil)

// Config parameterizes New.
type Config struct {
	// Runner executes experiments (required).
	Runner Runner
	// Store, when non-nil, is the durable result store: completed runs
	// spill into it and identical requests are served from it without
	// touching the Runner — including across daemon restarts.
	Store *resultstore.Store
	// Slots is the gateway-wide concurrent-execution bound the fair
	// queue dispatches over (0 = 4).
	Slots int
	// DefaultTenant is the admission policy for tenants without an
	// override; see TenantLimits for the zero-value defaults.
	DefaultTenant TenantLimits
	// Tenants overrides the policy per tenant name.
	Tenants map[string]TenantLimits
	// MaxRuns bounds the completed runs retained for GET /v1/runs
	// retrieval, oldest evicted first (0 = 1024). In-flight runs are
	// never evicted.
	MaxRuns int
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
	// Now, when non-nil, replaces the wall clock (tests freeze it).
	Now func() time.Time
}

// gateway event types (the run lifecycle on the gateway's event log).
const (
	evSubmitted = "submitted" // admitted past the rate limit
	evCached    = "cached"    // served from the durable store
	evStarted   = "started"   // granted an execution slot
	evProgress  = "progress"  // per-cell completion tick
	evResult    = "result"    // completed successfully
	evError     = "error"     // failed (or cancelled while queued)
	evRejected  = "rejected"  // refused with 429 (Reason: rate | queue)
)

// gwEventRing bounds the gateway's event ring: deep enough to replay a
// full 4096-cell grid's progress ticks to a late-attaching SSE client.
const gwEventRing = 8192

// run is one accepted request's lifecycle record.
type run struct {
	id         string
	tenant     string
	experiment string
	key        string
	req        opusnet.ExpRequestPayload
	cost       float64
	start      time.Time

	done chan struct{}
	// Final state, written before done closes.
	entry  resultstore.Entry
	err    error
	cached bool
	shared bool
}

// Gateway is the HTTP front door; construct with New, serve Handler,
// stop with Close.
type Gateway struct {
	runner  Runner
	store   *resultstore.Store
	tel     *telemetry.Set
	fq      *fairQueue
	tenants *tenantSet
	logf    func(format string, args ...any)
	now     func() time.Time
	maxRuns int

	// baseCtx parents async executions; Close cancels it and joins
	// them, so a stopped gateway leaves no execution behind.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	runWG      sync.WaitGroup

	reqSeq atomic.Uint64

	mu        sync.Mutex
	runs      map[string]*run
	doneOrder []string
	closed    bool

	reqTotal   *telemetry.CounterVec
	rejectedC  *telemetry.CounterVec
	inflightG  *telemetry.Gauge
	durations  *telemetry.HistogramVec
	queueDepth *telemetry.GaugeVec
}

// New builds a gateway over cfg.Runner.
func New(cfg Config) (*Gateway, error) {
	if cfg.Runner == nil {
		return nil, fmt.Errorf("railgate: no runner configured")
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 4
	}
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = 1024
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	//lint:allow ctxbg the gateway's lifetime root: async executions derive from it and Close cancels it
	baseCtx, baseCancel := context.WithCancel(context.Background())
	g := &Gateway{
		runner:     cfg.Runner,
		store:      cfg.Store,
		tel:        telemetry.NewSet(gwEventRing, func() int64 { return cfg.Now().UnixNano() }),
		fq:         newFairQueue(cfg.Slots),
		tenants:    newTenantSet(cfg.DefaultTenant, cfg.Tenants),
		logf:       cfg.Logf,
		now:        cfg.Now,
		maxRuns:    cfg.MaxRuns,
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		runs:       make(map[string]*run),
	}
	g.reqTotal = g.tel.Metrics.CounterVec("railgate_requests_total",
		"HTTP requests answered on the run-submission path, by tenant and status code.", "tenant", "code")
	g.rejectedC = g.tel.Metrics.CounterVec("railgate_rejected_total",
		"Requests refused with 429, by tenant and reason (rate = token bucket, queue = queue-depth cap).", "tenant", "reason")
	g.inflightG = g.tel.Metrics.Gauge("railgate_requests_inflight",
		"Requests holding an execution slot (granted by the fair queue, awaiting their result).")
	g.durations = g.tel.Metrics.HistogramVec("railgate_request_duration_seconds",
		"Accepted-request wall time from admission to final state, by experiment.",
		telemetry.DefLatencyBuckets, "experiment")
	g.queueDepth = g.tel.Metrics.GaugeVec("railgate_queue_depth",
		"Requests admitted but not yet executing, by tenant (sampled at scrape).", "tenant")
	g.tel.Metrics.OnScrape(g.sampleQueueDepths)
	if g.store != nil {
		hits := g.tel.Metrics.Counter("railgate_store_hits_total", "Durable-store lookups served from disk.")
		misses := g.tel.Metrics.Counter("railgate_store_misses_total", "Durable-store lookups that found nothing.")
		puts := g.tel.Metrics.Counter("railgate_store_puts_total", "Results spilled to the durable store.")
		evics := g.tel.Metrics.Counter("railgate_store_evictions_total", "Stored results evicted by the size bound.")
		bytes := g.tel.Metrics.Gauge("railgate_store_bytes", "Resident bytes in the durable store.")
		g.tel.Metrics.OnScrape(func() {
			st := g.store.Stats()
			hits.Set(st.Hits)
			misses.Set(st.Misses)
			puts.Set(st.Puts)
			evics.Set(st.Evictions)
			bytes.Set(float64(st.Bytes))
		})
	}
	return g, nil
}

// sampleQueueDepths mirrors the fair queue's per-tenant depths into the
// queue-depth gauge at scrape time (tenants with no backlog read 0).
func (g *Gateway) sampleQueueDepths() {
	depths := g.fq.Depths()
	names := g.tenants.names()
	sort.Strings(names)
	for _, name := range names {
		g.queueDepth.With(name).Set(float64(depths[name]))
	}
}

// Telemetry exposes the gateway's metrics registry and event log (the
// same Set Handler serves on /metrics and /events).
func (g *Gateway) Telemetry() *telemetry.Set { return g.tel }

// Close stops the gateway: in-flight async executions are cancelled and
// joined. The caller shuts the HTTP server down first, so no new
// requests arrive mid-teardown.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.baseCancel()
	g.runWG.Wait()
}

// Handler serves the gateway API plus the observability endpoints.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", g.handleCatalog)
	mux.HandleFunc("POST /v1/experiments/{name}", g.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", g.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}/events", g.handleRunEvents)
	tel := g.tel.Handler()
	mux.Handle("GET /metrics", tel)
	mux.Handle("GET /events", tel)
	return mux
}

// tenantOf resolves the request's tenant: the X-Tenant header, or
// "default".
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// errorJSON writes a JSON error envelope.
func (g *Gateway) errorJSON(w http.ResponseWriter, tenant string, code int, format string, args ...any) {
	g.reqTotal.With(tenant, strconv.Itoa(code)).Inc()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// reject refuses a request with 429 + Retry-After.
func (g *Gateway) reject(w http.ResponseWriter, tenant, name, reason string, retryAfter time.Duration) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	g.rejectedC.With(tenant, reason).Inc()
	g.tel.Events.Emit(telemetry.Event{Type: evRejected, Tenant: tenant, Exp: name, Reason: reason})
	g.errorJSON(w, tenant, http.StatusTooManyRequests, "railgate: tenant %q over its %s limit; retry after %ds", tenant, reason, secs)
}

// catalogEntry is one experiment in the JSON catalog.
type catalogEntry struct {
	Name        string             `json:"name"`
	Description string             `json:"description"`
	Grid        bool               `json:"grid"`
	Params      []catalogParamInfo `json:"params,omitempty"`
}

type catalogParamInfo struct {
	Name    string `json:"name"`
	Default string `json:"default"`
	Doc     string `json:"doc"`
}

func (g *Gateway) handleCatalog(w http.ResponseWriter, r *http.Request) {
	if negotiate(r) == "table" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = photonrail.DescribeExperiments(w)
		return
	}
	var out []catalogEntry
	for _, e := range photonrail.Experiments() {
		ce := catalogEntry{Name: e.Name, Description: e.Description, Grid: photonrail.IsGridExperiment(e.Name)}
		for _, p := range e.Params {
			ce.Params = append(ce.Params, catalogParamInfo{Name: p.Name, Default: p.Default, Doc: p.Doc})
		}
		out = append(out, ce)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// requestCost weighs a request for the fair queue: grid experiments
// cost their cell count, everything else 1 — so a 4096-cell grid pays
// for its size against a fig4's single unit.
func requestCost(name string, p photonrail.Params) float64 {
	if !photonrail.IsGridExperiment(name) {
		return 1
	}
	if p.Grid != nil {
		if grid, err := p.Grid.Resolve(); err == nil {
			return float64(grid.CellCount())
		}
		return 1
	}
	if mk, ok := scenario.Grids()[name]; ok {
		return float64(mk().CellCount())
	}
	return 1
}

func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	name := r.PathValue("name")
	if _, ok := photonrail.Lookup(name); !ok {
		g.errorJSON(w, tenant, http.StatusNotFound, "railgate: unknown experiment %q (GET /v1/experiments lists the registry)", name)
		return
	}
	var req opusnet.ExpRequestPayload
	if err := decodeBody(r.Body, &req); err != nil {
		g.errorJSON(w, tenant, http.StatusBadRequest, "railgate: bad parameter payload: %v", err)
		return
	}
	req.Name = name
	if req.Grid != nil {
		if !photonrail.IsGridExperiment(name) {
			g.errorJSON(w, tenant, http.StatusBadRequest, "railgate: experiment %q does not take a grid", name)
			return
		}
		// The daemon's own request bounds, applied before any queueing:
		// a grid the fleet would refuse is refused here, identically,
		// without burning a slot.
		if _, err := railserve.ValidateGridSpec(*req.Grid); err != nil {
			g.errorJSON(w, tenant, http.StatusBadRequest, "%v", err)
			return
		}
	}
	p := railserve.ExpParams(req)
	key := photonrail.ExperimentKey(name, p)

	g.mu.Lock()
	closed := g.closed
	g.mu.Unlock()
	if closed {
		g.errorJSON(w, tenant, http.StatusServiceUnavailable, "railgate: shutting down")
		return
	}

	ts := g.tenants.get(tenant)
	if ok, retry := ts.take(g.now()); !ok {
		g.reject(w, tenant, name, "rate", retry)
		return
	}

	// Durable-store fast path: an identical request — from any tenant,
	// before or after a daemon restart — serves the stored object with
	// zero new simulations and no slot held.
	if g.store != nil {
		if ent, ok := g.store.Get(key); ok {
			run := g.newRun(tenant, name, key, req, 0)
			run.cached = true
			g.tel.Events.Emit(telemetry.Event{Type: evCached, Req: run.id, Tenant: tenant, Exp: name, Key: key})
			g.finishRun(run, ent, nil)
			g.respondRun(w, r, run)
			return
		}
	}

	cost := requestCost(name, p)
	limits := ts.limits
	waiter, err := g.fq.Enqueue(tenant, limits.Weight, limits.MaxInFlight, limits.MaxQueue, cost)
	if err != nil {
		g.reject(w, tenant, name, "queue", time.Second)
		return
	}
	run := g.newRun(tenant, name, key, req, cost)
	g.tel.Events.Emit(telemetry.Event{Type: evSubmitted, Req: run.id, Tenant: tenant, Exp: name, Key: key, Cells: int(cost)})

	if isAsync(r) {
		g.runWG.Add(1)
		go func() {
			defer g.runWG.Done()
			g.execute(g.baseCtx, run, waiter)
		}()
		g.reqTotal.With(tenant, strconv.Itoa(http.StatusAccepted)).Inc()
		w.Header().Set("Location", "/v1/runs/"+run.id)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{
			"id":     run.id,
			"name":   name,
			"key":    key,
			"status": "queued",
			"result": "/v1/runs/" + run.id,
			"events": "/v1/runs/" + run.id + "/events",
		})
		return
	}
	g.execute(r.Context(), run, waiter)
	g.respondRun(w, r, run)
}

// isAsync reports the ?async query toggle.
func isAsync(r *http.Request) bool {
	switch r.URL.Query().Get("async") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// decodeBody parses the optional JSON parameter payload; an empty body
// is the zero payload. Only whitespace may follow the parameter object:
// a second value or stray bytes are refused like an unknown field.
func decodeBody(body io.Reader, req *opusnet.ExpRequestPayload) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		if errors.Is(err, io.EOF) {
			return nil
		}
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fmt.Errorf("trailing data after the parameter object")
	}
	return nil
}

// newRun registers a fresh run record.
func (g *Gateway) newRun(tenant, name, key string, req opusnet.ExpRequestPayload, cost float64) *run {
	rn := &run{
		id:         fmt.Sprintf("g%d", g.reqSeq.Add(1)),
		tenant:     tenant,
		experiment: name,
		key:        key,
		req:        req,
		cost:       cost,
		start:      g.now(),
		done:       make(chan struct{}),
	}
	g.mu.Lock()
	g.runs[rn.id] = rn
	g.mu.Unlock()
	return rn
}

// execute waits for a fair-queue grant, runs the experiment, spills the
// result to the durable store, and finalizes the run.
func (g *Gateway) execute(ctx context.Context, rn *run, waiter *fqWaiter) {
	if err := waiter.Wait(ctx, g.fq); err != nil {
		g.finishRun(rn, resultstore.Entry{}, fmt.Errorf("railgate: cancelled while queued: %w", err))
		return
	}
	defer g.fq.Release(waiter)
	g.inflightG.Inc()
	defer g.inflightG.Dec()
	g.tel.Events.Emit(telemetry.Event{Type: evStarted, Req: rn.id, Tenant: rn.tenant, Exp: rn.experiment, Key: rn.key})
	onProgress := func(done, total int) {
		g.tel.Events.Emit(telemetry.Event{Type: evProgress, Req: rn.id, Tenant: rn.tenant, Exp: rn.experiment, Done: done, Total: total})
	}
	res, err := g.runner.RunExperiment(ctx, rn.req, onProgress)
	if err != nil {
		g.finishRun(rn, resultstore.Entry{}, err)
		return
	}
	ent := resultstore.Entry{
		Experiment:  rn.experiment,
		Grid:        res.Grid,
		Rendered:    res.Rendered,
		RenderedCSV: res.RenderedCSV,
		RowsJSON:    res.RowsJSON,
	}
	rn.shared = res.Shared
	if g.store != nil {
		if perr := g.store.Put(rn.key, ent); perr != nil && g.logf != nil {
			g.logf("railgate: spill %s: %v", rn.key, perr)
		}
	}
	g.finishRun(rn, ent, nil)
}

// finishRun records the run's final state, emits the terminal event,
// observes the latency, and evicts the oldest completed runs beyond
// the retention bound.
func (g *Gateway) finishRun(rn *run, ent resultstore.Entry, err error) {
	rn.entry, rn.err = ent, err
	d := g.now().Sub(rn.start)
	g.durations.With(rn.experiment).Observe(d.Seconds())
	ev := telemetry.Event{Type: evResult, Req: rn.id, Tenant: rn.tenant, Exp: rn.experiment, Key: rn.key, DurationNS: d.Nanoseconds()}
	if err != nil {
		ev.Type = evError
		ev.Err = err.Error()
	}
	close(rn.done)
	g.mu.Lock()
	g.doneOrder = append(g.doneOrder, rn.id)
	for len(g.doneOrder) > g.maxRuns {
		delete(g.runs, g.doneOrder[0])
		g.doneOrder = g.doneOrder[1:]
	}
	g.mu.Unlock()
	g.tel.Events.Emit(ev)
}

// respondRun writes a completed (or failed) run as the response.
func (g *Gateway) respondRun(w http.ResponseWriter, r *http.Request, rn *run) {
	<-rn.done
	if rn.err != nil {
		code := http.StatusBadGateway
		if errors.Is(rn.err, context.Canceled) || errors.Is(rn.err, context.DeadlineExceeded) {
			code = http.StatusGatewayTimeout
		}
		g.errorJSON(w, rn.tenant, code, "%v", rn.err)
		return
	}
	g.serveEntry(w, r, rn, http.StatusOK)
}

func (g *Gateway) handleRun(w http.ResponseWriter, r *http.Request) {
	tenant := tenantOf(r)
	id := r.PathValue("id")
	g.mu.Lock()
	rn := g.runs[id]
	g.mu.Unlock()
	if rn == nil {
		g.errorJSON(w, tenant, http.StatusNotFound, "railgate: unknown run %q", id)
		return
	}
	select {
	case <-rn.done:
	default:
		g.reqTotal.With(tenant, strconv.Itoa(http.StatusAccepted)).Inc()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusAccepted)
		_ = json.NewEncoder(w).Encode(map[string]string{"id": rn.id, "status": "running"})
		return
	}
	if rn.err != nil {
		g.errorJSON(w, tenant, http.StatusInternalServerError, "%v", rn.err)
		return
	}
	g.serveEntry(w, r, rn, http.StatusOK)
}

func (g *Gateway) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	g.mu.Lock()
	rn := g.runs[id]
	g.mu.Unlock()
	if rn == nil {
		g.errorJSON(w, tenantOf(r), http.StatusNotFound, "railgate: unknown run %q", id)
		return
	}
	g.tel.Events.ServeSSE(w, r,
		func(ev telemetry.Event) bool { return ev.Req == id },
		func(ev telemetry.Event) bool { return ev.Type == evResult || ev.Type == evError })
}

// negotiate picks the response format: the ?format query parameter
// (table/csv/json, the CLI spellings) when present, else the first
// supported media type in Accept order; JSON is the default.
func negotiate(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return f
	}
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		switch strings.TrimSpace(strings.SplitN(part, ";", 2)[0]) {
		case "application/json":
			return "json"
		case "text/csv":
			return "csv"
		case "text/plain":
			return "table"
		case "*/*", "text/*":
			return "json"
		}
	}
	return "json"
}

// serveEntry writes the run's rendering in the negotiated format,
// through railserve.ExpRun.Render: the bytes the engine rendered once
// at execution time, or a grid's table or CSV derived from its stored
// JSON rows. Either way they are identical to the corresponding CLI
// output, and identical across fresh runs, polls, store hits, daemon
// restarts, and gateways.
func (g *Gateway) serveEntry(w http.ResponseWriter, r *http.Request, rn *run, code int) {
	var format, ctype string
	switch negotiate(r) {
	case "json":
		format, ctype = "json", "application/json; charset=utf-8"
	case "csv":
		format, ctype = "csv", "text/csv; charset=utf-8"
	case "table", "text":
		format, ctype = "table", "text/plain; charset=utf-8"
	default:
		g.errorJSON(w, rn.tenant, http.StatusNotAcceptable, "railgate: unknown format (want table, csv, or json)")
		return
	}
	res := railserve.ExpRun{Name: rn.experiment, Grid: rn.entry.Grid,
		Rendered: rn.entry.Rendered, RenderedCSV: rn.entry.RenderedCSV, RowsJSON: rn.entry.RowsJSON}
	body, err := res.Render(format)
	if err != nil {
		g.errorJSON(w, rn.tenant, http.StatusInternalServerError, "%v", err)
		return
	}
	g.reqTotal.With(rn.tenant, strconv.Itoa(code)).Inc()
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Railgate-Run", rn.id)
	w.Header().Set("Railgate-Key", rn.key)
	w.Header().Set("Railgate-Cached", strconv.FormatBool(rn.cached))
	w.Header().Set("Railgate-Shared", strconv.FormatBool(rn.shared))
	w.WriteHeader(code)
	_, _ = io.WriteString(w, body)
}
