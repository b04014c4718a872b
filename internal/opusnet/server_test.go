package opusnet

import (
	"net"
	"testing"
	"time"

	"photonrail/internal/parallelism"
)

// TestDeadConnectionDoesNotDeadlockServer is the regression test for
// the reply-under-mutex deadlock: dispatch used to hold s.mu while
// sending on the per-connection out channel, so once a connection's
// writer stopped consuming (dead or wedged socket) and the buffer
// filled, the next reply blocked forever with the server mutex held —
// wedging every other connection process-wide.
//
// The test drives one connection over net.Pipe (fully synchronous, so
// the writer goroutine is wedged the moment the test stops reading),
// parks a grant on it, floods it with more replies than the buffer
// holds, and then requires a healthy TCP client to still complete a
// full register/acquire/stats round.
func TestDeadConnectionDoesNotDeadlockServer(t *testing.T) {
	s := newTestServer(t, 0)
	p1, p2 := net.Pipe()
	defer p2.Close()
	if !s.lis.serve(p1) {
		t.Fatal("a running server refused the connection")
	}

	// Register rank 0's group, consuming the one reply we ever read:
	// after this the test never reads p2 again, so the connection's
	// writer blocks on its first reply and the out buffer only fills.
	if err := WriteMessage(p2, &Message{Type: MsgRegister, Seq: 1, Rank: 0, Group: "g", Ranks: []int{0, 4}}); err != nil {
		t.Fatal(err)
	}
	if ack, err := ReadMessage(p2); err != nil || ack.Type != MsgAck {
		t.Fatalf("register reply = %+v, %v", ack, err)
	}
	// Park a pending acquire so the eventual grant targets the dead
	// connection too.
	if err := WriteMessage(p2, &Message{Type: MsgAcquire, Seq: 2, Rank: 0, Rail: 0, Group: "g"}); err != nil {
		t.Fatal(err)
	}

	// Flood more replies than the buffer holds. Pre-fix, dispatch blocks
	// on reply ~serveReplyBuffer+2 with s.mu held and this goroutine never
	// finishes (its pipe write waits on the stuck read loop). Post-fix
	// the server drops the overflow and closes the wedged connection, so
	// the flood either completes or fails fast with a write error — only
	// a timeout means the deadlock is back.
	floodDone := make(chan error, 1)
	go func() {
		for i := 0; i < serveReplyBuffer+20; i++ {
			if err := WriteMessage(p2, &Message{Type: MsgStatsReq, Seq: uint64(100 + i)}); err != nil {
				floodDone <- err
				return
			}
		}
		floodDone <- nil
	}()
	select {
	case <-floodDone:
	case <-time.After(5 * time.Second):
		t.Fatal("server wedged ingesting requests from a non-reading connection (reply blocked under s.mu)")
	}

	// A healthy client must still get served, including the group grant
	// that also targets the dead connection.
	c4 := dialRank(t, s, 4)
	if err := c4.RegisterGroup("g", 0, 0, []int{0, 4}); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- c4.Acquire("g", 0) }()
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy client's acquire blocked behind a dead connection")
	}
	// Kill the wedged client mid-everything; the server stays up.
	_ = p2.Close()
	if _, err := c4.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupRegisteredLaterIsServed registers a group after the
// controller has already served another: the server numbers it next,
// adds it to the controller's circuit table, and the controller grows
// its rails' group slots to serve it while the first group's circuits
// are still installed. A refused registration takes no number.
func TestGroupRegisteredLaterIsServed(t *testing.T) {
	s := newTestServer(t, 0)
	clients := map[int]*Client{}
	for _, rank := range []int{0, 4, 8} {
		clients[rank] = dialRank(t, s, rank)
	}
	serve := func(group string, ranks []int) {
		t.Helper()
		for _, r := range ranks {
			if err := clients[r].RegisterGroup(group, 0, int(parallelism.PP), ranks); err != nil {
				t.Fatal(err)
			}
		}
		// Group sync: every member's acquire returns once all have asked.
		errs := make(chan error, len(ranks))
		for _, r := range ranks {
			go func(c *Client) { errs <- c.Acquire(group, 0) }(clients[r])
		}
		for range ranks {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("acquire of %s never granted", group)
			}
		}
		for _, r := range ranks {
			if err := clients[r].Release(group, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve("first", []int{0, 4})
	if err := clients[0].RegisterGroup("cross-rail", 0, int(parallelism.PP), []int{0, 5}); err == nil {
		t.Fatal("cross-rail group registered")
	}
	serve("later", []int{0, 8})
	serve("first", []int{0, 4})
	s.mu.Lock()
	first, later := s.groups["first"].ID, s.groups["later"].ID
	s.mu.Unlock()
	if first != 0 || later != 1 {
		t.Errorf("groups numbered %d and %d, want 0 and 1", first, later)
	}
	st, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	// "later" shares node 0's ports with "first": each switch between
	// them tears one down and sets the other up.
	if st.Reconfigurations != 3 {
		t.Errorf("reconfigurations = %d, want 3", st.Reconfigurations)
	}
}
