package opusnet

import (
	"context"
	"net"
	"sync"
)

// serveReplyBuffer bounds a served connection's reply queue: results
// and progress frames queue here while the socket drains.
const serveReplyBuffer = 256

// ConnState tracks one served connection's cancellable request waits:
// each outstanding request's waiter context is cancellable by a
// MsgCancel frame carrying the request's Seq, and tearing the
// connection down cancels them all, so a dropped client stops holding
// executions alive. Both raild (internal/railserve) and the fleet
// coordinator (internal/railfleet) rely on it for the shared
// cancellation contract.
type ConnState struct {
	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
	closed  bool
}

// Register installs a request's cancel func; it reports false (without
// installing) when the connection is already torn down.
func (cs *ConnState) Register(seq uint64, cancel context.CancelFunc) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.closed {
		return false
	}
	cs.cancels[seq] = cancel
	return true
}

// Unregister drops a completed request's cancel func.
func (cs *ConnState) Unregister(seq uint64) {
	cs.mu.Lock()
	delete(cs.cancels, seq)
	cs.mu.Unlock()
}

// CancelSeq fires the cancel for one outstanding request; unknown or
// completed Seqs are ignored (the cancel raced the result).
func (cs *ConnState) CancelSeq(seq uint64) {
	cs.mu.Lock()
	cancel := cs.cancels[seq]
	cs.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// teardown cancels every outstanding wait on a dying connection.
func (cs *ConnState) teardown() {
	cs.mu.Lock()
	cs.closed = true
	cancels := make([]context.CancelFunc, 0, len(cs.cancels))
	for _, c := range cs.cancels {
		cancels = append(cancels, c) //lint:allow maporder a set of cancel funcs; invocation order is immaterial
	}
	cs.cancels = make(map[uint64]context.CancelFunc)
	cs.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// ServeConn drives the server side of one framed connection: it reads
// messages until the peer disconnects and hands each to dispatch along
// with a reply function and the connection's ConnState.
//
// Replies are serialized through a per-connection writer goroutine so
// fan-out (which may run on worker pools) never blocks on the socket.
// A required frame (result, error) that cannot be queued — the peer is
// dead or wedged — closes the connection, so the peer sees an error
// instead of waiting forever on a dropped reply; advisory frames
// (required=false, e.g. progress ticks) are dropped silently. Late
// replies after the read loop exits are dropped too (the peer is gone
// either way). ServeConn returns when the read side ends, after the
// writer has drained and every outstanding wait has been cancelled;
// the caller still owns (and closes) conn.
//
// dispatch must not block the read loop: long work belongs on its own
// goroutine, replying via the provided function when done.
func ServeConn(conn net.Conn, dispatch Dispatch) {
	out := make(chan *Message, serveReplyBuffer)
	var wout sync.WaitGroup
	wout.Add(1)
	go func() {
		defer wout.Done()
		dead := false
		for m := range out {
			if dead {
				continue // drain so senders never block on a dead socket
			}
			if err := WriteMessage(conn, m); err != nil {
				// The error may be pre-write (e.g. an oversized frame)
				// with the socket itself still healthy; close it anyway,
				// because the peer is now missing a reply it would wait
				// on forever.
				dead = true
				_ = conn.Close()
			}
		}
	}()
	// Fan-out a request subscribed to may still broadcast after the
	// read loop exits; sending on the closed writer channel would
	// panic. sendClosed gates every reply.
	var sendMu sync.Mutex
	sendClosed := false
	defer wout.Wait()
	defer func() {
		sendMu.Lock()
		sendClosed = true
		sendMu.Unlock()
		close(out)
	}()
	reply := func(m *Message, required bool) {
		sendMu.Lock()
		defer sendMu.Unlock()
		if sendClosed {
			return
		}
		select {
		case out <- m:
		default:
			if required {
				// serveReplyBuffer outstanding frames: the peer is dead
				// or wedged. Close the connection so it sees an error
				// instead of waiting forever on the dropped reply.
				_ = conn.Close()
			}
			// Advisory frames are dropped silently.
		}
	}
	cs := &ConnState{cancels: make(map[uint64]context.CancelFunc)}
	defer cs.teardown()
	for {
		msg, err := ReadMessage(conn)
		if err != nil {
			return
		}
		dispatch(msg, reply, cs)
	}
}
