package railserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
)

// ErrConnDown reports the client's connection to the daemon failed
// before (or while awaiting) a reply; it is opusnet.ErrConnDown.
// Callers that fail requests over to another daemon — the fleet
// coordinator — test for it with errors.Is to distinguish a dead
// backend from an application-level refusal a retry elsewhere would
// only repeat.
var ErrConnDown = opusnet.ErrConnDown

// Client is a connection to a raild daemon (or a fleet coordinator):
// the experiment, cell, stats and fleet calls over one
// opusnet.ClientConn, which pipelines concurrent requests on the one
// connection and correlates their replies by sequence number.
type Client struct {
	cc *opusnet.ClientConn
}

// Dial connects to the daemon at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection — the in-process harnesses
// (and the fleet coordinator's pluggable dialer) hand pipe-backed
// conns in here; Dial is NewClient over a TCP connection.
func NewClient(conn net.Conn) *Client {
	return &Client{opusnet.NewClientConn(conn)}
}

// Close tears the connection down, failing outstanding calls, and
// joins its reader; see opusnet.ClientConn.Close.
func (c *Client) Close() error { return c.cc.Close() }

// call sends a request and blocks for its final reply, bounded by ctx
// (see opusnet.ClientConn.Call); a MsgErr reply is returned as an
// error.
func (c *Client) call(ctx context.Context, m *opusnet.Message, onProgress func(done, total int)) (*opusnet.Message, error) {
	resp, err := c.cc.Call(ctx, m, onProgress)
	if err == nil && resp.Type == opusnet.MsgErr {
		return nil, opusnet.PeerError("railserve: ", resp.Error)
	}
	return resp, err
}

// CellsRun is one executed cell subset as the daemon reported it.
type CellsRun struct {
	// Name is the resolved grid's name.
	Name string
	// Indices echo the requested expansion-order cell positions.
	Indices []int
	// RowJSON are the executed cells' rows, ordered as Indices listed
	// them, each as photonrail.GridRowJSON renders it: the bytes
	// photonrail.AppendGridJSON joins into a grid's JSON rendering.
	RowJSON [][]byte
	// Rows are the same rows structured, set only when the daemon sent
	// them that way (one from before row attachments); RowJSON then
	// holds their renderings.
	Rows []scenario.Row
	// Shared reports the daemon coalesced this request onto an identical
	// in-flight subset request.
	Shared bool
}

// RunCellsCtx executes the subset of the grid's expanded cells at the
// given indices — the fleet coordinator's fan-out call. Semantics
// mirror RunExperiment: the wait is bounded by ctx (a cancel frame is
// sent on expiry so the daemon stops only this request's wait), and
// onProgress receives advisory ticks over the subset. The request asks
// for the rows as an attachment; a daemon that sends them structured
// instead has them rendered here, through photonrail.GridRowJSON, so
// RowJSON holds the same bytes either way.
func (c *Client) RunCellsCtx(ctx context.Context, spec scenario.Spec, indices []int, timeout time.Duration, onProgress func(done, total int)) (*CellsRun, error) {
	req := opusnet.CellsRequestPayload{Spec: &spec, Indices: indices, TimeoutMS: timeout.Milliseconds()}
	resp, err := c.call(ctx, &opusnet.Message{Type: opusnet.MsgCellsReq, Cells: &req, WantRaw: true}, onProgress)
	if err != nil {
		return nil, err
	}
	if resp.Type != opusnet.MsgCellsResult || resp.CellsResult == nil {
		return nil, fmt.Errorf("railserve: unexpected reply %q to cells request", resp.Type)
	}
	r := resp.CellsResult
	run := &CellsRun{Name: r.Name, Indices: r.Indices, Rows: r.Rows, Shared: r.Shared}
	if r.RowLens != nil {
		// ReadMessage checked that the lengths split Raw exactly.
		raw := resp.Raw
		for _, n := range r.RowLens {
			run.RowJSON = append(run.RowJSON, raw[:n:n])
			raw = raw[n:]
		}
		return run, nil
	}
	for _, row := range r.Rows {
		js, err := photonrail.GridRowJSON(row)
		if err != nil {
			return nil, fmt.Errorf("railserve: cells result of grid %q: %w", r.Name, err)
		}
		run.RowJSON = append(run.RowJSON, js)
	}
	return run, nil
}

// ExpRun is one completed experiment as a daemon reported it (or as
// railclient's in-process path rendered it, through the same
// RenderExpPayload): the renderings it carried. Render turns it into
// the bytes an output format prints.
type ExpRun struct {
	// Name is the experiment that ran; Grid is the executed grid's name
	// for grid experiments.
	Name, Grid string
	// Rendered, RenderedCSV, and RowsJSON are the aligned-text, CSV,
	// and indented-JSON renderings. A grid experiment carries only
	// RowsJSON.
	Rendered, RenderedCSV, RowsJSON string
	// Shared reports the daemon coalesced this request onto an
	// identical in-flight request.
	Shared bool
}

// Render returns the bytes format ("table", "csv" or "json") prints
// for the run: the rendering the server carried, or, for a grid
// experiment that carried only its JSON rows, the table or CSV derived
// from RowsJSON through photonrail.GridExperimentResult —
// byte-identical to a local run. It is the one place a client turns a
// result into output (railclient, and railgate for fresh runs, polls
// and store hits alike), and it derives only the format asked for. A
// grid is recognised by its experiment name, not its grid name, which
// an unnamed spec leaves empty.
func (r *ExpRun) Render(format string) (string, error) {
	var carried string
	switch format {
	case "json":
		return r.RowsJSON, nil
	case "table":
		carried = r.Rendered
	case "csv":
		carried = r.RenderedCSV
	default:
		return "", fmt.Errorf("railserve: unknown format %q (want table, csv, or json)", format)
	}
	if carried != "" || !photonrail.IsGridExperiment(r.Name) {
		return carried, nil
	}
	var rows photonrail.GridRows
	if err := json.Unmarshal([]byte(r.RowsJSON), &rows); err != nil {
		return "", fmt.Errorf("railserve: grid rows of %q: %w", r.Name, err)
	}
	res := photonrail.GridExperimentResult(rows.Grid, rows.Cells)
	render := res.RenderText
	if format == "csv" {
		render = res.RenderCSV
	}
	var out strings.Builder
	err := render(&out)
	return out.String(), err
}

// RunExperiment submits a registered experiment by name and blocks
// until the daemon returns the result, the request's TimeoutMS elapses
// server-side, or ctx is cancelled — in which case a cancel frame is
// sent so the daemon stops only this request's wait (an execution other
// clients joined keeps running for them) and ctx.Err() is returned
// promptly. onProgress receives advisory completion ticks.
//
// The request asks for the result's rows as the frame's attachment; a
// daemon that sends them in the envelope instead is read the same way.
func (c *Client) RunExperiment(ctx context.Context, req opusnet.ExpRequestPayload, onProgress func(done, total int)) (*ExpRun, error) {
	resp, err := c.call(ctx, &opusnet.Message{Type: opusnet.MsgExpReq, Exp: &req, WantRaw: true}, onProgress)
	if err != nil {
		return nil, err
	}
	if resp.Type != opusnet.MsgExpResult || resp.ExpResult == nil {
		return nil, fmt.Errorf("railserve: unexpected reply %q to experiment request", resp.Type)
	}
	run := NewExpRun(resp.ExpResult)
	if resp.Raw != nil {
		run.RowsJSON = string(resp.Raw)
	}
	return run, nil
}

// NewExpRun wraps an exp_result payload as the ExpRun a client renders,
// whether the payload came over the wire or from RenderExpPayload in
// the same process, so both print through the same Render.
func NewExpRun(r *opusnet.ExpResultPayload) *ExpRun {
	return &ExpRun{
		Name: r.Name, Grid: r.Grid,
		Rendered: r.Rendered, RenderedCSV: r.RenderedCSV, RowsJSON: r.RowsJSON,
		Shared: r.Shared,
	}
}

// ack sends a request frame and blocks for its MsgAck, bounded by ctx
// — the shared shape of the fleet control-plane calls (register,
// heartbeat, drain), whose replies carry no payload.
func (c *Client) ack(ctx context.Context, m *opusnet.Message) error {
	resp, err := c.call(ctx, m, nil)
	if err != nil {
		return err
	}
	if resp.Type != opusnet.MsgAck {
		return fmt.Errorf("railserve: unexpected reply %q to %s", resp.Type, m.Type)
	}
	return nil
}

// FleetRegister announces a backend to a fleet coordinator and blocks
// for the acknowledgement — the agent's registration call.
func (c *Client) FleetRegister(ctx context.Context, p opusnet.FleetRegisterPayload) error {
	return c.ack(ctx, &opusnet.Message{Type: opusnet.MsgFleetRegister, FleetReg: &p})
}

// FleetHeartbeat refreshes a registration (liveness, capacity, piggy-
// backed stats) and blocks for the acknowledgement. A coordinator that
// no longer knows the identity refuses with MsgErr, surfacing here as
// an error the caller answers by re-registering.
func (c *Client) FleetHeartbeat(ctx context.Context, p opusnet.HeartbeatPayload) error {
	return c.ack(ctx, &opusnet.Message{Type: opusnet.MsgHeartbeat, Heartbeat: &p})
}

// FleetDrain announces a graceful departure; the acknowledgement
// guarantees the coordinator will assign the backend no new work.
func (c *Client) FleetDrain(ctx context.Context, p opusnet.DrainPayload) error {
	return c.ack(ctx, &opusnet.Message{Type: opusnet.MsgDrain, DrainReq: &p})
}

// Stats fetches the daemon's serving telemetry.
func (c *Client) Stats() (opusnet.CacheStatsPayload, error) {
	return c.StatsCtx(context.Background()) //lint:allow ctxbg deprecated pre-context wrapper; callers with a context use StatsCtx
}

// StatsCtx is Stats bounded by ctx — the fleet coordinator uses it so
// one wedged backend cannot hang an aggregated stats reply.
func (c *Client) StatsCtx(ctx context.Context) (opusnet.CacheStatsPayload, error) {
	resp, err := c.call(ctx, &opusnet.Message{Type: opusnet.MsgStatsReq}, nil)
	if err != nil {
		return opusnet.CacheStatsPayload{}, err
	}
	if resp.Type != opusnet.MsgStatsResp || resp.Cache == nil {
		return opusnet.CacheStatsPayload{}, fmt.Errorf("railserve: unexpected reply %q to stats request", resp.Type)
	}
	return *resp.Cache, nil
}
