package opusnet

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// scriptedListener feeds a Listener a fixed sequence of Accept
// results. Once the script runs out, Accept blocks until the listener
// is closed and then returns atClose.
type scriptedListener struct {
	script  []acceptResult
	atClose acceptResult
	closed  chan struct{}
	calls   int // Accept calls; read only after the accept loop is joined
}

type acceptResult struct {
	conn net.Conn
	err  error
}

func newScriptedListener(atClose acceptResult, script ...acceptResult) *scriptedListener {
	return &scriptedListener{script: script, atClose: atClose, closed: make(chan struct{})}
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.calls++
	if l.calls <= len(l.script) {
		r := l.script[l.calls-1]
		return r.conn, r.err
	}
	<-l.closed
	return l.atClose.conn, l.atClose.err
}

func (l *scriptedListener) Close() error {
	close(l.closed)
	return nil
}

func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{} }

// stubConn only needs Close for these tests.
type stubConn struct {
	net.Conn
	closed bool
}

func (c *stubConn) Close() error {
	c.closed = true
	return nil
}

// listenScripted wraps ln in a Listener that records what it logs.
func listenScripted(t *testing.T, ln net.Listener, logged *[]error) *Listener {
	t.Helper()
	l, err := Listen("", ln, func(err error) { *logged = append(*logged, err) })
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// closeWithin closes l and fails the test when Close does not return
// promptly, as it cannot while the accept loop keeps retrying.
func closeWithin(t *testing.T, l *Listener) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: the accept loop never exited")
	}
}

// recvSeq waits for the Seq of a dispatched frame.
func recvSeq(t *testing.T, got <-chan uint64) uint64 {
	t.Helper()
	select {
	case seq := <-got:
		return seq
	case <-time.After(5 * time.Second):
		t.Fatal("an accepted connection's frame never reached dispatch")
		return 0
	}
}

// TestAcceptLoopHandsConnsToRegister: every accepted connection is
// served through dispatch, and Close ends the ones still live.
func TestAcceptLoopHandsConnsToRegister(t *testing.T) {
	a, aPeer := net.Pipe()
	b, bPeer := net.Pipe()
	var logged []error
	l := listenScripted(t, newScriptedListener(acceptResult{err: net.ErrClosed}, acceptResult{conn: a}, acceptResult{conn: b}), &logged)
	got := make(chan uint64, 2)
	l.Start(func(msg *Message, _ func(*Message, bool), _ *ConnState) { got <- msg.Seq })
	for i, peer := range []net.Conn{aPeer, bPeer} {
		if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: uint64(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if seq := recvSeq(t, got); seq != uint64(i+1) {
			t.Fatalf("dispatch saw seq %d, want %d", seq, i+1)
		}
	}
	closeWithin(t, l)
	for _, peer := range []net.Conn{aPeer, bPeer} {
		if _, err := ReadMessage(peer); err == nil {
			t.Fatal("a served connection outlived Close")
		}
	}
	if len(logged) != 0 {
		t.Fatalf("logged %v, want nothing", logged)
	}
}

func TestAcceptLoopRetriesTransientErrors(t *testing.T) {
	transient := errors.New("too many open files")
	c, peer := net.Pipe()
	var logged []error
	l := listenScripted(t, newScriptedListener(acceptResult{err: net.ErrClosed}, acceptResult{err: transient}, acceptResult{conn: c}), &logged)
	got := make(chan uint64, 1)
	l.Start(func(msg *Message, _ func(*Message, bool), _ *ConnState) { got <- msg.Seq })
	if err := WriteMessage(peer, &Message{Type: MsgStatsReq, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	if seq := recvSeq(t, got); seq != 7 {
		t.Fatalf("dispatch saw seq %d, want 7 (after retrying the transient error)", seq)
	}
	closeWithin(t, l)
	if len(logged) != 1 || !errors.Is(logged[0], transient) {
		t.Fatalf("logged %v, want the transient error once", logged)
	}
}

func TestAcceptLoopStopsWhenClosedReports(t *testing.T) {
	// A non-closure error once Close has begun must exit without
	// logging or retrying — the shutdown path.
	ln := newScriptedListener(acceptResult{err: errors.New("boom")})
	var logged []error
	l := listenScripted(t, ln, &logged)
	l.Start(func(*Message, func(*Message, bool), *ConnState) { t.Error("dispatch after shutdown") })
	closeWithin(t, l)
	if len(logged) != 0 {
		t.Fatalf("logged %v during shutdown, want nothing", logged)
	}
	if ln.calls != 1 {
		t.Fatalf("accept called %d times, want 1", ln.calls)
	}
}

func TestAcceptLoopClosesConnWhenRegisterRefuses(t *testing.T) {
	// A connection accepted after Close began is closed, not served,
	// and the loop exits.
	c := &stubConn{}
	var logged []error
	l := listenScripted(t, newScriptedListener(acceptResult{conn: c}), &logged)
	l.Start(func(*Message, func(*Message, bool), *ConnState) { t.Error("served a connection accepted after Close") })
	closeWithin(t, l)
	if !c.closed {
		t.Fatal("refused connection was not closed")
	}
}

// chanListener accepts the conns sent on conns until it is closed.
type chanListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *chanListener) Addr() net.Addr { return &net.TCPAddr{} }

// slowCloseConn's Close blocks until release, as a TCP conn's Close
// waits for the read in progress on it; closing reports that a Close
// has begun.
type slowCloseConn struct {
	net.Conn
	closing, release chan struct{}
	once             sync.Once
}

func (c *slowCloseConn) Close() error {
	c.once.Do(func() { close(c.closing) })
	<-c.release
	return c.Conn.Close()
}

// closedConn reports its Close on closed.
type closedConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *closedConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestCloseReleasesLockWhileClosingConns: Close closes the live
// connections outside the listener's lock, so while one of them blocks
// in its Close, Closed still answers and a connection accepted
// meanwhile is still refused and closed.
func TestCloseReleasesLockWhileClosingConns(t *testing.T) {
	ln := &chanListener{conns: make(chan net.Conn), closed: make(chan struct{})}
	l, err := Listen("", ln, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.Start(func(*Message, func(*Message, bool), *ConnState) {})
	a, aPeer := net.Pipe()
	defer aPeer.Close()
	slow := &slowCloseConn{Conn: a, closing: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(slow.release) })
	defer release() // a failed run's blocked Closes
	ln.conns <- slow
	tracked := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		_, ok := l.conns[slow]
		return ok
	}
	for deadline := time.Now().Add(5 * time.Second); !tracked(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the accepted connection was never tracked")
		}
	}
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	within := func(what string, done <-chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Errorf("%s did not return while a connection's Close was in progress", what)
		}
	}
	within("the first connection's Close", slow.closing)

	answered := make(chan struct{})
	go func() {
		if !l.Closed() {
			t.Error("Closed() = false during Close")
		}
		close(answered)
	}()
	within("Closed", answered)

	b, bPeer := net.Pipe()
	defer bPeer.Close()
	late := &closedConn{Conn: b, closed: make(chan struct{})}
	select {
	case ln.conns <- late:
		within("closing a connection accepted during Close", late.closed)
	case <-time.After(2 * time.Second):
		t.Error("the accept loop stopped accepting before Close closed the listener")
	}

	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}
