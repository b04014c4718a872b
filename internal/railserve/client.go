package railserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
)

// ErrConnDown reports the client's connection to the daemon failed
// before (or while awaiting) a reply. Callers that fail requests over
// to another daemon — the fleet coordinator — test for it with
// errors.Is to distinguish a dead backend from an application-level
// refusal a retry elsewhere would only repeat.
var ErrConnDown = errors.New("railserve: connection down")

// Client is a connection to a raild daemon (or a fleet coordinator).
// One client may pipeline several concurrent requests on the one
// connection; replies are correlated by sequence number.
type Client struct {
	conn net.Conn
	// readDone closes when the reader goroutine exits; Close joins it,
	// so a closed client never leaves its progress-routing reader
	// behind (the goroutine-leak regression tests pin this).
	readDone chan struct{}

	// wmu serializes frame writes. WriteMessage writes each frame in
	// one conn.Write, but a net.Conn need not keep concurrent Writes
	// apart, so without the lock pipelined requests could interleave
	// bytes and corrupt the stream.
	wmu sync.Mutex

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*pendingCall
	readErr error
}

// pendingCall is one outstanding request: progress frames tick the
// callback, the final frame (result, stats, or error) lands on result.
type pendingCall struct {
	seq        uint64
	onProgress func(done, total int)
	result     chan *opusnet.Message
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
	c := &Client{
		conn:     conn,
		readDone: make(chan struct{}),
		pending:  make(map[uint64]*pendingCall),
	}
	go func() {
		c.readLoop()
		// Closed once readLoop has returned, so a reader Close joined is
		// already off the stack (the leak tests count readLoop frames).
		close(c.readDone)
	}()
	return c
}

// Close tears the connection down (outstanding calls fail) and waits
// for the client's reader goroutine to exit, so callers that close a
// client observe all of its goroutines gone. Do not call Close from
// inside an onProgress callback — the reader runs those, so the join
// would deadlock.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readDone
	return err
}

func (c *Client) readLoop() {
	for {
		msg, err := opusnet.ReadMessage(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for _, p := range c.pending {
				close(p.result)
			}
			c.pending = make(map[uint64]*pendingCall)
			c.mu.Unlock()
			return
		}
		// A progress frame is recognized by its payload, not its type:
		// earlier daemons tick cells_req under the retired grid progress
		// type, and a coordinator must not mistake those ticks for final
		// replies.
		progress := msg.Progress != nil
		c.mu.Lock()
		p, ok := c.pending[msg.Seq]
		if ok && !progress {
			delete(c.pending, msg.Seq) // final frame for this call
		}
		c.mu.Unlock()
		if !ok {
			continue // reply for an abandoned call
		}
		if progress {
			if p.onProgress != nil {
				p.onProgress(msg.Progress.Done, msg.Progress.Total)
			}
			continue
		}
		p.result <- msg
	}
}

// start registers a pending call and writes the request.
func (c *Client) start(m *opusnet.Message, onProgress func(done, total int)) (*pendingCall, error) {
	p := &pendingCall{onProgress: onProgress, result: make(chan *opusnet.Message, 1)}
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrConnDown, err)
	}
	c.seq++
	m.Seq = c.seq
	p.seq = m.Seq
	c.pending[m.Seq] = p
	c.mu.Unlock()
	c.wmu.Lock()
	err := opusnet.WriteMessage(c.conn, m) //lint:allow lockedblock wmu exists to serialize frame writes; it guards nothing a reader blocks on
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, m.Seq)
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrConnDown, err)
	}
	return p, nil
}

// awaitCtx blocks for a call's final frame, bounded by ctx: on expiry a
// best-effort cancel frame is sent, the call abandoned locally, and
// ctx.Err() returned promptly.
func (p *pendingCall) awaitCtx(ctx context.Context, c *Client) (*opusnet.Message, error) {
	select {
	case m, ok := <-p.result:
		if !ok {
			return nil, fmt.Errorf("%w: connection closed awaiting reply", ErrConnDown)
		}
		if m.Type == opusnet.MsgErr {
			return nil, fmt.Errorf("railserve: %s", m.Error)
		}
		return m, nil
	case <-ctx.Done():
		c.sendCancel(p.seq)
		c.forget(p.seq)
		return nil, ctx.Err()
	}
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
	p, err := c.start(&opusnet.Message{Type: opusnet.MsgCellsReq, Cells: &req, WantRaw: true}, onProgress)
	if err != nil {
		return nil, err
	}
	resp, err := p.awaitCtx(ctx, c)
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
	p, err := c.start(&opusnet.Message{Type: opusnet.MsgExpReq, Exp: &req, WantRaw: true}, onProgress)
	if err != nil {
		return nil, err
	}
	resp, err := p.awaitCtx(ctx, c)
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
	p, err := c.start(m, nil)
	if err != nil {
		return err
	}
	resp, err := p.awaitCtx(ctx, c)
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

// sendCancel writes a cancel frame for an outstanding request's seq.
func (c *Client) sendCancel(seq uint64) {
	c.wmu.Lock()
	//lint:allow lockedblock wmu exists to serialize frame writes; it guards nothing a reader blocks on
	_ = opusnet.WriteMessage(c.conn, &opusnet.Message{Type: opusnet.MsgCancel, Seq: seq})
	c.wmu.Unlock()
}

// forget abandons an outstanding call: later frames for it are dropped.
func (c *Client) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// Stats fetches the daemon's serving telemetry.
func (c *Client) Stats() (opusnet.CacheStatsPayload, error) {
	return c.StatsCtx(context.Background()) //lint:allow ctxbg deprecated pre-context wrapper; callers with a context use StatsCtx
}

// StatsCtx is Stats bounded by ctx — the fleet coordinator uses it so
// one wedged backend cannot hang an aggregated stats reply.
func (c *Client) StatsCtx(ctx context.Context) (opusnet.CacheStatsPayload, error) {
	p, err := c.start(&opusnet.Message{Type: opusnet.MsgStatsReq}, nil)
	if err != nil {
		return opusnet.CacheStatsPayload{}, err
	}
	resp, err := p.awaitCtx(ctx, c)
	if err != nil {
		return opusnet.CacheStatsPayload{}, err
	}
	if resp.Type != opusnet.MsgStatsResp || resp.Cache == nil {
		return opusnet.CacheStatsPayload{}, fmt.Errorf("railserve: unexpected reply %q to stats request", resp.Type)
	}
	return *resp.Cache, nil
}
