package opusnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// acceptBackoff is the retry delay after a transient Accept error.
// Persistent errors (e.g. fd exhaustion) would otherwise busy-spin the
// loop and flood the log.
const acceptBackoff = 10 * time.Millisecond

// Dispatch serves one frame of a connection; see ServeConn.
type Dispatch func(msg *Message, reply func(*Message, bool), cs *ConnState)

// Listener is the server side of the protocol's connections, shared by
// every photonrail server (the Opus controller, raild and the fleet
// coordinator): it accepts connections, serves each on its own
// goroutine through ServeConn, and tracks the live ones, so Close ends
// them all. Its Context is the server's lifetime, which Close ends.
type Listener struct {
	ln     net.Listener
	logf   func(err error)
	ctx    context.Context
	cancel context.CancelFunc

	dispatch Dispatch // set by Start, before the accept loop runs

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	// wg tracks the accept loop and the connection handlers: everything
	// Close waits for.
	wg sync.WaitGroup
}

// Listen serves ln or, when ln is nil, a fresh TCP listener on addr
// ("" means "127.0.0.1:0"). Accept errors other than the listener's
// closing go to logf, when non-nil, and are retried after a short
// backoff. It accepts nothing until Start.
func Listen(addr string, ln net.Listener, logf func(err error)) (*Listener, error) {
	if ln == nil {
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, err
		}
	}
	//lint:allow ctxbg the server's lifetime root: every request context derives from it and Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	return &Listener{ln: ln, logf: logf, ctx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{})}, nil
}

// Start begins accepting, serving each connection's frames through
// dispatch.
func (l *Listener) Start(dispatch Dispatch) {
	l.dispatch = dispatch
	l.wg.Add(1)
	go l.acceptLoop()
}

// Addr returns the listen address for clients to dial.
func (l *Listener) Addr() string { return l.ln.Addr().String() }

// Context is the server's base context: Close cancels it.
func (l *Listener) Context() context.Context { return l.ctx }

// Closed reports whether Close has begun.
func (l *Listener) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Close stops accepting, closes every live connection, cancels
// Context, and waits for the accept loop and the connection handlers
// to finish. It takes the connection set under the lock and closes the
// connections after releasing it: a TCP conn's Close waits for the read
// in progress on it, and Closed and serve must not wait behind that.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	conns := l.conns
	l.conns = nil // serve tracks no conn once closed
	l.mu.Unlock()
	for conn := range conns {
		_ = conn.Close()
	}
	l.cancel()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// acceptLoop accepts until the listener closes or Close begins.
func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || l.Closed() {
				return
			}
			if l.logf != nil {
				l.logf(err)
			}
			time.Sleep(acceptBackoff)
			continue
		}
		if !l.serve(conn) {
			return
		}
	}
}

// serve tracks conn and serves it on its own goroutine until its read
// side ends. Once Close has begun it closes conn instead and reports
// false.
func (l *Listener) serve(conn net.Conn) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		_ = conn.Close()
		return false
	}
	l.conns[conn] = struct{}{}
	l.wg.Add(1)
	l.mu.Unlock()
	go func() {
		defer l.wg.Done()
		ServeConn(conn, l.dispatch)
		l.mu.Lock()
		delete(l.conns, conn)
		l.mu.Unlock()
		_ = conn.Close()
	}()
	return true
}
