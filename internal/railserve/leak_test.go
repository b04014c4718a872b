package railserve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
)

// clientReaders counts live reader goroutines of this package's Client
// — the goleak-style probe of the leak regression tests (the module
// vendors no dependencies, so the check is a stack scan rather than
// the goleak library).
func clientReaders() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "railserve.(*Client).readLoop")
}

// TestClientCloseJoinsReader is the goroutine-leak regression test:
// when the server closes the connection before the first frame,
// RunExperiment fails over the dead connection — and closing the
// client must leave NO progress-routing reader goroutine behind. The
// check is strict (counted immediately after Close returns, no
// settling retries) and repeated, so a Close that merely closes the
// socket without joining the reader — the pre-fix behavior — is
// caught.
func TestClientCloseJoinsReader(t *testing.T) {
	if n := clientReaders(); n != 0 {
		t.Fatalf("%d client readers alive before the test", n)
	}
	for i := 0; i < 50; i++ {
		s, err := NewServer(Config{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Dial(s.Addr())
		if err != nil {
			_ = s.Close()
			t.Fatal(err)
		}
		// The server tears every connection down before any frame.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		_, err = c.RunExperiment(context.Background(),
			opusnet.ExpRequestPayload{Name: "table1"}, func(done, total int) {})
		if err == nil {
			t.Fatal("RunExperiment succeeded over a closed server")
		}
		if !errors.Is(err, ErrConnDown) {
			t.Fatalf("err = %v, want ErrConnDown", err)
		}
		if err := c.Close(); err != nil && !strings.Contains(err.Error(), "closed") {
			t.Fatalf("close: %v", err)
		}
		// Strict: the reader must already be gone when Close returns.
		if n := clientReaders(); n != 0 {
			t.Fatalf("iteration %d: %d client reader goroutines alive after Close", i, n)
		}
	}
}

// TestClientCloseJoinsReaderMidProgress is the deterministic half of
// the leak regression: the reader goroutine is parked inside the
// caller's progress callback (provably alive — it blocks on a test
// channel) while Close is called. A Close that does not join the
// reader returns immediately with the goroutine still running, which
// this test observes directly; the fixed Close blocks until the
// callback unwinds and the reader exits.
func TestClientCloseJoinsReaderMidProgress(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "leak", LatenciesMS: []float64{5}, Iterations: 1})
	s := newTestServer(t, 1, 0)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := c.RunExperiment(context.Background(), gridReq(spec), func(d, total int) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		})
		done <- err
	}()
	<-entered // the reader is now parked inside the progress callback

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
		// Close returned while the reader is still provably blocked in
		// the callback — the pre-fix leak.
		n := clientReaders()
		close(release)
		t.Fatalf("Close returned without joining the reader (%d alive)", n)
	case <-time.After(100 * time.Millisecond):
		// Close is (correctly) waiting for the reader.
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close returns once the reader's deferred close(readDone) ran, a
	// few instructions before its goroutine leaves the stack, so give it
	// a bounded moment to unwind; a reader that never exits still fails.
	deadline := time.Now().Add(2 * time.Second)
	n := clientReaders()
	for n != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = clientReaders()
	}
	if n != 0 {
		t.Fatalf("%d client readers alive 2s after Close", n)
	}
	if err := <-done; err != nil && !errors.Is(err, ErrConnDown) {
		t.Fatalf("request err = %v, want success or ErrConnDown", err)
	}
}
