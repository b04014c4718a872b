// Package opusnet is the Opus control plane as deployable software: the
// controller runs as a TCP server ("the control plane remains electrical
// and host-driven", §2.1) and every scale-up domain's shim connects as a
// client. The wire protocol is length-prefixed JSON.
//
// The server reuses the exact FC-FS controller logic of internal/opus
// (driven by a wall-clock Clock instead of the discrete-event engine)
// and adds the §4.1 group-sync step: a reconfiguration request is acted
// on only once every rank of the communication group has issued it, and
// all ranks are acknowledged together.
//
// The same framed protocol also carries the raild experiment-serving
// messages. MsgExpReq/MsgExpProgress/MsgExpResult run any experiment
// in the photonrail registry — a scenario grid travels as the "grid"
// experiment with its spec — honor a per-request deadline (TimeoutMS),
// and support client-initiated cancellation: a MsgCancel frame
// carrying a request's Seq stops that request's wait — and only that
// request's; an execution other clients joined keeps running for them.
// See internal/railserve.
package opusnet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"photonrail/internal/scenario"
)

// MsgType discriminates wire messages.
type MsgType string

// The protocol messages. Clients send Register/Acquire/Release/
// Provision/StatsReq; the server replies with Ack/Err/StatsResp.
const (
	// MsgRegister declares a communication group (name, rail, members).
	// Idempotent; all members must register identically.
	MsgRegister MsgType = "register"
	// MsgAcquire asks for the group's circuits; acknowledged when every
	// member rank has asked and the circuits are installed.
	MsgAcquire MsgType = "acquire"
	// MsgRelease reports the rank's transfer on the group's circuits is
	// done.
	MsgRelease MsgType = "release"
	// MsgProvision is the shim's speculative reconfiguration intent.
	MsgProvision MsgType = "provision"
	// MsgStatsReq asks for controller telemetry.
	MsgStatsReq MsgType = "stats"
	// MsgAck acknowledges an Acquire (circuits granted), Register,
	// Release, or Provision.
	MsgAck MsgType = "ack"
	// MsgErr reports a request failure.
	MsgErr MsgType = "error"
	// MsgStatsResp carries telemetry.
	MsgStatsResp MsgType = "stats_resp"

	// MsgExpReq submits a registered photonrail experiment by name; Exp
	// carries the parameters and optional per-request deadline.
	MsgExpReq MsgType = "exp_req"
	// MsgExpProgress streams completion counts for a running experiment
	// or cell-subset request (correlated by Seq; grids tick per cell;
	// advisory, may be dropped on a slow connection).
	MsgExpProgress MsgType = "exp_progress"
	// MsgExpResult carries a completed experiment's renderings and rows.
	MsgExpResult MsgType = "exp_result"
	// MsgCancel cancels the sender's outstanding request with the same
	// Seq: that request terminates promptly with MsgErr, while an
	// execution other requests joined keeps running for them. Unknown or
	// already-completed Seqs are ignored; MsgCancel itself has no reply.
	MsgCancel MsgType = "cancel"

	// MsgCellsReq submits a *subset* of a scenario grid's cells for
	// execution — the fleet coordinator's fan-out frame: the coordinator
	// expands a grid once, shards the expansion-order cell indices
	// across backend daemons, and sends each backend one cells_req per
	// batch. Cells carries the grid spec and the indices.
	MsgCellsReq MsgType = "cells_req"
	// MsgCellsResult carries the executed subset's rows, in the order
	// the request's indices listed them. Progress for a running subset
	// streams as MsgExpProgress frames (done/total over the subset).
	MsgCellsResult MsgType = "cells_result"

	// MsgFleetRegister announces a raild backend to a fleet
	// coordinator: identity, the address the coordinator should dial
	// for cells, and capacity (worker-pool size). Acknowledged with
	// MsgAck; refused with MsgErr when the coordinator does not accept
	// registrations. Re-registering the same identity upserts (a
	// restarted daemon rejoins under its old identity).
	MsgFleetRegister MsgType = "fleet_register"
	// MsgHeartbeat refreshes a registered backend's liveness, carrying
	// its current capacity and the same Stats() snapshot that serves
	// stats_resp. A coordinator marks a backend dead when heartbeats
	// stop. Acknowledged with MsgAck; a heartbeat for an identity the
	// coordinator does not know is refused with MsgErr so the sender
	// re-registers.
	MsgHeartbeat MsgType = "heartbeat"
	// MsgDrain announces a registered backend's graceful departure: the
	// coordinator stops assigning it new work (in-flight batches finish
	// or hand off to the next wave without counting as failover) and
	// acknowledges with MsgAck once the mark is durable.
	MsgDrain MsgType = "drain"
)

// Message is the single wire envelope.
type Message struct {
	Type MsgType `json:"type"`
	// Seq correlates a request with its ack; unique per connection.
	Seq uint64 `json:"seq"`
	// Rank is the sender's global rank.
	Rank int `json:"rank,omitempty"`
	// Rail is the rail the request concerns.
	Rail int `json:"rail,omitempty"`
	// Group names the communication group.
	Group string `json:"group,omitempty"`
	// Ranks lists group members (Register only).
	Ranks []int `json:"ranks,omitempty"`
	// Axis is the parallelism axis of the group (Register only).
	Axis int `json:"axis,omitempty"`
	// Error carries the failure reason (MsgErr).
	Error string `json:"error,omitempty"`
	// Stats carries telemetry (MsgStatsResp).
	Stats *StatsPayload `json:"stats,omitempty"`
	// Progress reports cells completed so far (MsgExpProgress).
	Progress *GridProgress `json:"progress,omitempty"`
	// Cache carries a raild daemon's serving telemetry (MsgStatsResp).
	Cache *CacheStatsPayload `json:"cache,omitempty"`
	// Exp declares the requested experiment (MsgExpReq).
	Exp *ExpRequestPayload `json:"exp,omitempty"`
	// ExpResult carries a completed experiment (MsgExpResult).
	ExpResult *ExpResultPayload `json:"expResult,omitempty"`
	// Cells declares a requested cell subset (MsgCellsReq).
	Cells *CellsRequestPayload `json:"cells,omitempty"`
	// CellsResult carries an executed cell subset (MsgCellsResult).
	CellsResult *CellsResultPayload `json:"cellsResult,omitempty"`
	// FleetReg announces a backend to a coordinator (MsgFleetRegister).
	FleetReg *FleetRegisterPayload `json:"fleetReg,omitempty"`
	// Heartbeat refreshes a registered backend (MsgHeartbeat).
	Heartbeat *HeartbeatPayload `json:"heartbeat,omitempty"`
	// DrainReq announces a graceful departure (MsgDrain).
	DrainReq *DrainPayload `json:"drain,omitempty"`
}

// FleetRegisterPayload is a backend's registration: who it is, where
// the coordinator dials it, and how much it can run.
type FleetRegisterPayload struct {
	// ID is the backend's stable identity — stable across restarts and
	// listener port choices, so its rendezvous shard survives both.
	ID string `json:"id"`
	// Addr is the address the coordinator dials for cells_req batches
	// (the backend's serving listener, not the registration conn).
	Addr string `json:"addr"`
	// Capacity is the backend's worker-pool size; capacity-weighted
	// sharding assigns cells proportionally to it (minimum 1).
	Capacity int `json:"capacity"`
}

// HeartbeatPayload refreshes a registration. Capacity may change
// between heartbeats (a resized pool re-weights the shard); Stats
// piggybacks the backend's serving telemetry so the coordinator's
// aggregated stats_resp needs no extra round trip to dynamic members.
type HeartbeatPayload struct {
	ID       string             `json:"id"`
	Capacity int                `json:"capacity,omitempty"`
	Stats    *CacheStatsPayload `json:"stats,omitempty"`
}

// DrainPayload announces a graceful departure of a registered backend.
type DrainPayload struct {
	ID string `json:"id"`
	// Reason is a human-readable cause ("sigterm", "-drain", ...).
	Reason string `json:"reason,omitempty"`
}

// CellsRequestPayload asks a daemon to execute the subset of a grid's
// cells named by expansion-order indices — the partial-execution unit
// a fleet coordinator shards a grid into. Indices must be in-range,
// duplicate-free positions of the resolved grid's expansion.
type CellsRequestPayload struct {
	// Spec is the grid whose expansion the indices select from.
	Spec *scenario.Spec `json:"spec"`
	// Indices are expansion-order cell positions to execute.
	Indices []int `json:"indices"`
	// TimeoutMS, when positive, bounds this request's wait server-side,
	// exactly like ExpRequestPayload.TimeoutMS.
	TimeoutMS int64 `json:"timeoutMS,omitempty"`
}

// CellsResultPayload is one executed cell subset in wire form.
type CellsResultPayload struct {
	// Name is the resolved grid's name.
	Name string `json:"name"`
	// Indices echo the request's cell positions.
	Indices []int `json:"indices"`
	// Rows are the executed cells, ordered as Indices listed them.
	Rows []scenario.Row `json:"rows"`
	// Shared reports the request was coalesced onto an identical
	// in-flight subset request (request-level singleflight).
	Shared bool `json:"shared,omitempty"`
}

// BackendStatsPayload is one fleet backend's health as the coordinator
// sees it: whether its last contact succeeded, how many cells it has
// executed for the coordinator, and how many times it failed mid-request
// (each failure re-shards its cells to the survivors). For coordinators
// with an elastic control plane the membership fields carry the
// registry view; older coordinators omit them.
type BackendStatsPayload struct {
	Addr     string `json:"addr"`
	Healthy  bool   `json:"healthy"`
	Cells    uint64 `json:"cells"`
	Failures uint64 `json:"failures"`
	// ID is the backend's stable identity: the registered identity for
	// self-registered members, the positional (and reserved) "s<i>" for
	// static -backends entries.
	ID string `json:"id,omitempty"`
	// Capacity is the weight capacity-weighted sharding uses (static
	// backends weigh 1).
	Capacity int `json:"capacity,omitempty"`
	// State is the membership state: "healthy", "draining", "drained",
	// or "dead".
	State string `json:"state,omitempty"`
	// Static marks a -backends flag entry — a registry member whose
	// liveness comes from the coordinator's probes (a dial or stats_req
	// answered) — as opposed to a self-registered member, whose liveness
	// comes from its heartbeats.
	Static bool `json:"static,omitempty"`
	// LastHeartbeatAgeMS is the age of the newest heartbeat for
	// registered members; absent for static members, which do not
	// heartbeat.
	LastHeartbeatAgeMS int64 `json:"lastHeartbeatAgeMS,omitempty"`
}

// ExpRequestPayload names a registered photonrail experiment and its
// parameters in wire form. Zero-valued parameters take the
// experiment's documented defaults, mirroring photonrail.Params.
type ExpRequestPayload struct {
	// Name is the registry name (photonrail.Lookup).
	Name string `json:"name"`
	// TimeoutMS, when positive, is the per-request deadline: the daemon
	// abandons this request's wait (with MsgErr) once it elapses.
	TimeoutMS int64 `json:"timeoutMS,omitempty"`

	Iterations       int            `json:"iterations,omitempty"`
	WindowIterations int            `json:"windowIterations,omitempty"`
	LatenciesMS      []float64      `json:"latenciesMS,omitempty"`
	Rail             int            `json:"rail,omitempty"`
	GPUs             int            `json:"gpus,omitempty"`
	Grid             *scenario.Spec `json:"grid,omitempty"`
}

// ExpResultPayload is a completed experiment in wire form. The daemon
// renders once and ships exact bytes, so a remote invocation is
// byte-identical to its local twin. A grid experiment ships only
// RowsJSON, its one canonical rendering: the client derives the table
// or CSV from those rows when it is asked for one
// (railserve.ExpRun.Render). Every other experiment ships all three
// renderings, because its text is not a function of its rows. Clients
// read whatever renderings a daemon carries, so an older daemon's
// three-rendering grid result still prints as it did.
type ExpResultPayload struct {
	// Name is the experiment that ran.
	Name string `json:"name"`
	// Grid is the executed grid's name for grid experiments.
	Grid string `json:"gridName,omitempty"`
	// Rendered is the aligned-text rendering (empty for a grid).
	Rendered string `json:"rendered,omitempty"`
	// RenderedCSV is the CSV rendering (empty for a grid).
	RenderedCSV string `json:"renderedCSV,omitempty"`
	// RowsJSON is the indented-JSON rendering of the structured rows
	// (carried as a string so re-encoding the frame cannot re-compact
	// the exact bytes).
	RowsJSON string `json:"rowsJSON,omitempty"`
	// Shared reports the request was coalesced onto an identical
	// in-flight request from another client.
	Shared bool `json:"shared,omitempty"`
}

// GridProgress is one per-cell progress tick of a running request.
type GridProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// CacheStatsPayload mirrors the daemon's engine and serving telemetry
// over the wire: the memo-cache counters plus the request-level
// experiment and cell-subset dedup counters. A fleet coordinator's
// stats additionally carry per-backend health (Backends) with the
// cache counters summed across the backends it could reach.
type CacheStatsPayload struct {
	Hits         uint64 `json:"hits"`
	Misses       uint64 `json:"misses"`
	Evictions    uint64 `json:"evictions"`
	InFlight     int64  `json:"inFlight"`
	ExpsExecuted uint64 `json:"expsExecuted,omitempty"`
	ExpsDeduped  uint64 `json:"expsDeduped,omitempty"`
	// CellsExecuted counts cells executed through the cells_req subset
	// path; CellsDeduped counts subset requests coalesced onto an
	// identical in-flight one.
	CellsExecuted uint64 `json:"cellsExecuted,omitempty"`
	CellsDeduped  uint64 `json:"cellsDeduped,omitempty"`
	// Per-stage counters of the staged simulation pipeline (Build →
	// Provision → Time). They partition Hits/Misses by the pipeline
	// stage the lookup belongs to; older daemons omit them.
	BuildHits       uint64 `json:"buildHits,omitempty"`
	BuildMisses     uint64 `json:"buildMisses,omitempty"`
	ProvisionHits   uint64 `json:"provisionHits,omitempty"`
	ProvisionMisses uint64 `json:"provisionMisses,omitempty"`
	TimeHits        uint64 `json:"timeHits,omitempty"`
	TimeMisses      uint64 `json:"timeMisses,omitempty"`
	// SeedHits/SeedMisses count Provision-stage convergence seeding: a
	// hit adopts a neighboring latency's converged per-rail profile
	// (sharing its memoized speculation plans), a miss falls back to
	// converging from the reactive profile alone.
	SeedHits   uint64 `json:"seedHits,omitempty"`
	SeedMisses uint64 `json:"seedMisses,omitempty"`
	// Backends is the fleet coordinator's per-backend health view
	// (absent on a single daemon's stats).
	Backends []BackendStatsPayload `json:"backends,omitempty"`
}

// StatsPayload mirrors opus.Stats over the wire.
type StatsPayload struct {
	Reconfigurations    int   `json:"reconfigurations"`
	FastGrants          int   `json:"fast_grants"`
	QueuedGrants        int   `json:"queued_grants"`
	BlockedTimeNS       int64 `json:"blocked_time_ns"`
	ProvisionedRequests int   `json:"provisioned_requests"`
}

// maxFrame bounds a frame to keep a malformed peer from ballooning
// memory. Grid results carry one row per cell (~400 bytes each), so
// 8 MiB comfortably frames grids of thousands of cells while still
// rejecting garbage lengths.
const maxFrame = 8 << 20

// WriteMessage frames and writes one message: a 4-byte big-endian length
// followed by the JSON body.
func WriteMessage(w io.Writer, m *Message) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("opusnet: marshal: %w", err)
	}
	if len(body) > maxFrame {
		return fmt.Errorf("opusnet: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(body)
	return err
}

// ReadMessage reads one framed message.
func ReadMessage(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("opusnet: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	var m Message
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("opusnet: unmarshal: %w", err)
	}
	return &m, nil
}
