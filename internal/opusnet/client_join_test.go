package opusnet

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// connReaders counts live reader goroutines of ClientConn, the one
// reader behind both clients on the protocol.
func connReaders() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "opusnet.(*ClientConn).readLoop")
}

// TestClientCloseJoinsReadLoop pins the PR 5-class fix in Close: after
// Close returns, the read loop has fully exited (its error path ran
// and recorded the connection error), so no client goroutine outlives
// the handle.
func TestClientCloseJoinsReadLoop(t *testing.T) {
	// Over a pipe, whose Close does not wait for a read in progress the
	// way a socket's does, only the join keeps the reader from
	// outliving Close. The pipe's write returns once the reader has read
	// the frame (and dropped it, as no call awaits it), so the reader is
	// running.
	conn, peer := net.Pipe()
	defer peer.Close()
	c := &Client{cc: NewClientConn(conn), rank: 3}
	if err := WriteMessage(peer, &Message{Type: MsgAck, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if n := connReaders(); n != 1 {
		t.Fatalf("probe counts %d readers with one client open, want 1", n)
	}

	done := make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return; read-loop join hangs")
	}

	// The join guarantee: the loop's teardown already happened by the
	// time Close returned — no sleep or retry needed to observe it.
	c.cc.mu.Lock()
	readErr := c.cc.readErr
	c.cc.mu.Unlock()
	if readErr == nil {
		t.Fatal("Close returned before the read loop recorded its exit")
	}
	if n := connReaders(); n != 0 {
		t.Fatalf("%d readers alive after Close", n)
	}
	// Calls on a closed client fail fast instead of hanging.
	if err := c.Release("g", 0); err == nil {
		t.Fatal("call on a closed client succeeded")
	}

	// Double Close stays safe: the joined channel is closed, so the
	// second receive returns immediately.
	done = make(chan error, 1)
	go func() { done <- c.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("second Close hangs")
	}

	// ...and reports the connection's own error. A pipe's second Close
	// returns nil, so this half dials a socket, as a shim does.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()
	tc, err := Dial(ln.Addr().String(), 3)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case conn := <-accepted:
		defer conn.Close()
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted the dial")
	}
	if err := tc.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := tc.Close(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("second Close = %v, want the net.ErrClosed of the already-closed conn", err)
	}
}
