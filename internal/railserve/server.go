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
//     out to every waiter still subscribed;
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
// way), and a departed waiter gets no further progress frames.
// Server.Close cancels the base context, so shutdown also stops
// abandoned executions from scheduling more work.
//
// Results render once, where asked. A grid experiment's exp_result
// carries only its indented JSON rows (RenderExpPayload); the edge that
// wants its table or CSV derives it from those rows with
// ExpRun.Render, which railclient and the railgate front door share.
// Every other experiment carries all three renderings, since its text
// is not a function of its rows.
//
// That contract lives in one place: Core, the serving skeleton (accept
// loop, base context, request singleflight, per-request observability,
// Drain). Server is Core over a warm engine; the internal/railfleet
// coordinator is Core over a fan-out, so raild and the fleet serve
// every request through the same join-or-start code.
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

// Server is the experiment-serving daemon: the serving Core (accept
// loop, request singleflight, observability, Close/Drain) over one
// warm engine.
type Server struct {
	*Core
	engine *photonrail.Engine

	// exps counts experiment executions actually started and requests
	// coalesced onto one of them — the gap between requests received
	// and executions is the request-level dedup win the loopback e2e
	// test asserts on. cells counts CELLS executed through the subset
	// path (the fleet distribution tests assert every backend got some)
	// and coalesced subset requests.
	exps, cells DedupCounters
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
	core, err := NewCore(CoreConfig{Addr: cfg.Addr, Listener: cfg.Listener, Prefix: "raild", Logf: cfg.Logf})
	if err != nil {
		return nil, err
	}
	s := &Server{Core: core, engine: photonrail.NewBoundedEngine(cfg.Workers, cfg.MaxCacheCost)}
	stageDur := core.tel.Metrics.HistogramVec("raild_stage_duration_seconds",
		"Wall time of simulations actually computed (cache misses), by pipeline stage.",
		telemetry.DefLatencyBuckets, "stage")
	s.engine.SetStageObserver(func(stage string, seconds float64) {
		if stage == "" {
			stage = "other"
		}
		stageDur.With(stage).Observe(seconds)
	})
	core.Start(s.dispatch, s.Stats)
	return s, nil
}

// Engine exposes the daemon's engine (tests assert on its cache stats).
func (s *Server) Engine() *photonrail.Engine { return s.engine }

// Stats reports the daemon's serving telemetry: the engine's cache
// counters plus the request-level dedup counters.
func (s *Server) Stats() opusnet.CacheStatsPayload {
	st := s.engine.CacheStats()
	return opusnet.CacheStatsPayload{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		InFlight:      st.InFlight,
		ExpsExecuted:  s.exps.Executed.Load(),
		ExpsDeduped:   s.exps.Deduped.Load(),
		CellsExecuted: s.cells.Executed.Load(),
		CellsDeduped:  s.cells.Deduped.Load(),

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

// Capacity reports the engine's worker-pool size — the weight a
// registered backend advertises for capacity-weighted sharding.
func (s *Server) Capacity() int { return s.engine.Workers() }

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

// ResolveExp checks an exp_req payload against the registry and the
// daemon's request bounds and converts it to the experiment's Params.
// raild and the fleet coordinator's proxy both resolve through it, so
// photonrail.ExperimentKey over the result keys the same request the
// same way in either server.
func ResolveExp(req *opusnet.ExpRequestPayload) (photonrail.Experiment, photonrail.Params, error) {
	if req == nil {
		return photonrail.Experiment{}, photonrail.Params{}, fmt.Errorf("railserve: experiment request without a payload")
	}
	e, ok := photonrail.Lookup(req.Name)
	if !ok {
		// Deliberately does not echo arbitrary names at frame-limit
		// lengths; the registry spelling list is short and fixed.
		return e, photonrail.Params{}, fmt.Errorf("railserve: unknown experiment (see photonrail.Experiments; grids run via name %q)", "grid")
	}
	if req.Grid != nil {
		if !photonrail.IsGridExperiment(req.Name) {
			return e, photonrail.Params{}, fmt.Errorf("railserve: experiment %q does not take a grid", req.Name)
		}
		if _, err := ValidateGridSpec(*req.Grid); err != nil {
			return e, photonrail.Params{}, err
		}
	}
	return e, ExpParams(*req), nil
}

// ExpParams maps an exp_req payload to registry parameters — the one
// conversion raild, the fleet coordinator and the railgate front door
// share, so photonrail.ExperimentKey hashes identically at every layer.
func ExpParams(req opusnet.ExpRequestPayload) photonrail.Params {
	p := photonrail.Params{
		Iterations:       req.Iterations,
		WindowIterations: req.WindowIterations,
		LatenciesMS:      req.LatenciesMS,
		Rail:             req.Rail,
		GPUs:             req.GPUs,
	}
	if req.Grid != nil {
		spec := *req.Grid
		p.Grid = &spec
	}
	return p
}

// serveExp runs a registered photonrail experiment for one request:
// validate, then hand the Core an execute closure that runs the
// registry entry and renders its result server-side.
func (s *Server) serveExp(msg *opusnet.Message, reply func(*opusnet.Message, bool), cs *opusnet.ConnState) {
	e, p, err := ResolveExp(msg.Exp)
	if err != nil {
		reply(&opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq, Error: err.Error()}, true)
		return
	}
	name := msg.Exp.Name
	s.Serve(&Request{
		Seq: msg.Seq, TimeoutMS: msg.Exp.TimeoutMS,
		// The canonical experiment/params hash: the same key the railgate
		// front door content-addresses stored results under, so in-flight
		// coalescing here and cross-restart dedup there agree by
		// construction.
		Key:   photonrail.ExperimentKey(name, p),
		Exp:   name,
		Desc:  fmt.Sprintf("railserve: experiment %q", name),
		Count: s.exps.Count(1),
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			params := p
			params.OnProgress = progress
			res, err := e.Run(ctx, s.engine, params)
			if err != nil {
				return nil, err
			}
			return RenderExpPayload(name, res)
		},
		Result: ExpResult(msg.Seq, name),
	}, reply, cs)
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

	s.Serve(&Request{
		Seq: seq, TimeoutMS: req.TimeoutMS,
		Key:   exp.Key("cells", grid, indices),
		Exp:   "cells",
		Cells: len(indices),
		Desc:  fmt.Sprintf("railserve: grid %q %d-cell subset", grid.Name, len(indices)),
		Count: s.cells.Count(uint64(len(indices))),
		Execute: func(ctx context.Context, progress func(done, total int)) (any, error) {
			results, err := s.engine.RunCellsProgressCtx(ctx, grid, indices, progress)
			if err != nil {
				return nil, err
			}
			res := photonrail.GridResult{Grid: grid, Cells: results}
			return &opusnet.CellsResultPayload{Name: grid.Name, Indices: indices, Rows: res.Rows()}, nil
		},
		Result: func(payload any, shared bool) *opusnet.Message {
			p := *(payload.(*opusnet.CellsResultPayload))
			p.Shared = shared
			return &opusnet.Message{Type: opusnet.MsgCellsResult, Seq: seq, CellsResult: &p}
		},
	}, reply, cs)
}

// RenderExpPayload renders a completed experiment once, server-side,
// into its exp_result payload. raild and the fleet coordinator both
// shape exp_result through it, so a fleet's merged grid travels
// byte-identically to a single daemon's. A grid experiment ships only
// its JSON rows: its table and CSV are functions of those rows, and
// the edge that asks for one derives it (see ExpRun.Render). Every
// other experiment ships all three renderings, because its text is not
// a function of its rows (eq1's footer, window-analysis's CDF tables).
func RenderExpPayload(name string, res *photonrail.ExperimentResult) (*opusnet.ExpResultPayload, error) {
	var rows bytes.Buffer
	if err := res.RenderJSON(&rows); err != nil {
		return nil, err
	}
	out := &opusnet.ExpResultPayload{Name: name, Grid: res.Grid, RowsJSON: rows.String()}
	if photonrail.IsGridExperiment(name) {
		return out, nil
	}
	var text, csv bytes.Buffer
	if err := res.RenderText(&text); err != nil {
		return nil, err
	}
	if err := res.RenderCSV(&csv); err != nil {
		return nil, err
	}
	out.Rendered, out.RenderedCSV = text.String(), csv.String()
	return out, nil
}
