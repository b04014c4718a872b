package opusnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"photonrail/internal/opus"
	"photonrail/internal/units"
)

// ErrConnDown reports that a call's connection failed before or while
// the call awaited its reply. Callers that fail a request over to
// another server (the fleet coordinator) test for it with errors.Is,
// to tell a dead peer from a refusal that a retry elsewhere would only
// repeat.
var ErrConnDown = errors.New("opusnet: connection down")

// errClosedAwaitingReply fails a call whose connection died before its
// final frame arrived.
var errClosedAwaitingReply = fmt.Errorf("%w: connection closed awaiting reply", ErrConnDown)

// ClientConn is the client side of one framed connection, the core of
// both clients on the protocol: the Opus shim (Client) and the
// experiment client of raild and the fleet coordinator
// (railserve.Client). Calls are pipelined: each request goes out under
// a fresh Seq, and one reader goroutine routes each incoming frame to
// its call by that Seq. A frame with a Progress payload ticks the
// call's progress callback; any other frame is the call's final reply.
// Once the connection dies, every outstanding and later call fails
// with ErrConnDown.
type ClientConn struct {
	conn net.Conn
	// readDone closes when the reader goroutine exits; Close joins it,
	// so a closed connection never leaves its reader behind (the
	// goroutine-leak regression tests pin this).
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

// pendingCall is one outstanding call: progress frames tick
// onProgress, and the final frame lands on result, which the reader
// closes unfilled when the connection dies.
type pendingCall struct {
	onProgress func(done, total int)
	result     chan *Message
}

// NewClientConn starts the reader of an established connection.
func NewClientConn(conn net.Conn) *ClientConn {
	c := &ClientConn{
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
// for the reader goroutine to exit, so once Close returns no goroutine
// of this connection is left running. Do not call Close from inside a
// progress callback: the reader runs those, so the join would
// deadlock.
func (c *ClientConn) Close() error {
	err := c.conn.Close()
	<-c.readDone
	return err
}

func (c *ClientConn) readLoop() {
	for {
		msg, err := ReadMessage(c.conn)
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

// Call sends m under a fresh Seq and returns its final reply, whatever
// its type: a MsgErr reply is the caller's to interpret. onProgress,
// when non-nil, receives the call's progress ticks on the reader
// goroutine. The wait is bounded by ctx: when ctx ends first, a
// best-effort cancel frame asks the server to stop the request's wait,
// the call is abandoned locally (later frames for it are dropped), and
// ctx.Err() is returned promptly.
func (c *ClientConn) Call(ctx context.Context, m *Message, onProgress func(done, total int)) (*Message, error) {
	p, err := c.start(m, onProgress)
	if err != nil {
		return nil, err
	}
	select {
	case resp, ok := <-p.result:
		if !ok {
			return nil, errClosedAwaitingReply
		}
		return resp, nil
	case <-ctx.Done():
		_ = c.write(&Message{Type: MsgCancel, Seq: m.Seq})
		c.forget(m.Seq)
		return nil, ctx.Err()
	}
}

// start registers a call under a fresh Seq and writes its request.
func (c *ClientConn) start(m *Message, onProgress func(done, total int)) (*pendingCall, error) {
	p := &pendingCall{onProgress: onProgress, result: make(chan *Message, 1)}
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrConnDown, err)
	}
	c.seq++
	m.Seq = c.seq
	c.pending[m.Seq] = p
	c.mu.Unlock()
	if err := c.write(m); err != nil {
		c.forget(m.Seq)
		return nil, fmt.Errorf("%w: %v", ErrConnDown, err)
	}
	return p, nil
}

// write sends one frame, serialized with the connection's other
// writes.
func (c *ClientConn) write(m *Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return WriteMessage(c.conn, m) //lint:allow lockedblock wmu exists to serialize frame writes; it guards nothing a reader blocks on
}

// forget abandons an outstanding call: later frames for it are dropped.
func (c *ClientConn) forget(seq uint64) {
	c.mu.Lock()
	delete(c.pending, seq)
	c.mu.Unlock()
}

// Client is one rank's shim connection to the Opus controller: the
// controller's typed calls over a ClientConn, each stamped with the
// rank. A call waits for its reply or the connection's end.
type Client struct {
	cc   *ClientConn
	rank int
}

// Dial connects rank's shim to the controller at addr.
func Dial(addr string, rank int) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{cc: NewClientConn(conn), rank: rank}, nil
}

// Rank returns the client's global rank.
func (c *Client) Rank() int { return c.rank }

// Close tears the connection down and joins its reader; see
// ClientConn.Close.
func (c *Client) Close() error { return c.cc.Close() }

// call sends a request from the client's rank and blocks for its
// reply; a MsgErr reply is returned as an error.
func (c *Client) call(m *Message) (*Message, error) {
	m.Rank = c.rank
	p, err := c.cc.start(m, nil)
	if err != nil {
		return nil, err
	}
	resp, ok := <-p.result
	if !ok {
		return nil, errClosedAwaitingReply
	}
	if resp.Type == MsgErr {
		return nil, PeerError("opusnet: ", resp.Error)
	}
	return resp, nil
}

// PeerError returns a peer's MsgErr text as an error under prefix, the
// name of the client's package ("opusnet: ", "railserve: "). The servers
// of this repo write their texts under that same name, so the prefix is
// added only where the text does not already start with it.
func PeerError(prefix, text string) error {
	if strings.HasPrefix(text, prefix) {
		return errors.New(text)
	}
	return errors.New(prefix + text)
}

// RegisterGroup declares a communication group in the controller's
// comm-group table. Every member's shim registers the same definition.
func (c *Client) RegisterGroup(name string, rail int, axis int, ranks []int) error {
	_, err := c.call(&Message{Type: MsgRegister, Group: name, Rail: rail, Axis: axis, Ranks: ranks})
	return err
}

// Acquire blocks until the group's circuits are granted to this rank.
// Per the §4.1 group-sync step, the grant arrives only once every member
// rank has called Acquire and the rail reconfigured if needed.
func (c *Client) Acquire(group string, rail int) error {
	_, err := c.call(&Message{Type: MsgAcquire, Group: group, Rail: rail})
	return err
}

// Release reports this rank's transfer on the group's circuits is done.
func (c *Client) Release(group string, rail int) error {
	_, err := c.call(&Message{Type: MsgRelease, Group: group, Rail: rail})
	return err
}

// Provision sends the shim's speculative reconfiguration intent.
func (c *Client) Provision(group string, rail int) error {
	_, err := c.call(&Message{Type: MsgProvision, Group: group, Rail: rail})
	return err
}

// Stats fetches controller telemetry.
func (c *Client) Stats() (opus.Stats, error) {
	resp, err := c.call(&Message{Type: MsgStatsReq})
	if err != nil {
		return opus.Stats{}, err
	}
	if resp.Stats == nil {
		return opus.Stats{}, fmt.Errorf("opusnet: stats reply without payload")
	}
	return opus.Stats{
		Reconfigurations:    resp.Stats.Reconfigurations,
		FastGrants:          resp.Stats.FastGrants,
		QueuedGrants:        resp.Stats.QueuedGrants,
		BlockedTime:         units.Duration(resp.Stats.BlockedTimeNS),
		ProvisionedRequests: resp.Stats.ProvisionedRequests,
	}, nil
}
