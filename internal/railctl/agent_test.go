package railctl

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"photonrail/internal/opusnet"
)

// fakeCoord is a scripted coordinator: it acks every control-plane
// frame and records what it saw, so the agent's dial/register/
// heartbeat/reconnect/drain behavior is observable without a real
// fleet.
type fakeCoord struct {
	ln   net.Listener
	seen chan *opusnet.Message

	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

func startFakeCoord(t *testing.T) *fakeCoord {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fc := &fakeCoord{ln: ln, seen: make(chan *opusnet.Message, 64)}
	go fc.accept()
	t.Cleanup(fc.stop)
	return fc
}

func (fc *fakeCoord) accept() {
	for {
		conn, err := fc.ln.Accept()
		if err != nil {
			return
		}
		fc.mu.Lock()
		if fc.done {
			fc.mu.Unlock()
			_ = conn.Close()
			return
		}
		fc.conns = append(fc.conns, conn)
		fc.mu.Unlock()
		go fc.serve(conn)
	}
}

func (fc *fakeCoord) serve(conn net.Conn) {
	for {
		msg, err := opusnet.ReadMessage(conn)
		if err != nil {
			return
		}
		select {
		case fc.seen <- msg:
		default:
		}
		if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgAck, Seq: msg.Seq}); err != nil {
			return
		}
	}
}

// dropConns severs every live connection, forcing the agent to redial.
func (fc *fakeCoord) dropConns() {
	fc.mu.Lock()
	conns := fc.conns
	fc.conns = nil
	fc.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
}

func (fc *fakeCoord) stop() {
	fc.mu.Lock()
	fc.done = true
	fc.mu.Unlock()
	_ = fc.ln.Close()
	fc.dropConns()
}

// await blocks for the next frame of the wanted type, failing the test
// after a generous bound.
func (fc *fakeCoord) await(t *testing.T, want opusnet.MsgType) *opusnet.Message {
	t.Helper()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case msg := <-fc.seen:
			if msg.Type == want {
				return msg
			}
		case <-deadline:
			t.Fatalf("fake coordinator never saw a %s frame", want)
		}
	}
}

func TestAgentRegistersHeartbeatsReconnects(t *testing.T) {
	fc := startFakeCoord(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-a",
		Addr:        "serve-addr",
		Capacity:    7,
		Interval:    20 * time.Millisecond,
		Stats:       func() opusnet.CacheStatsPayload { return opusnet.CacheStatsPayload{CellsExecuted: 42} },
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	reg := fc.await(t, opusnet.MsgFleetRegister)
	if reg.FleetReg == nil || reg.FleetReg.ID != "node-a" || reg.FleetReg.Addr != "serve-addr" || reg.FleetReg.Capacity != 7 {
		t.Fatalf("registration payload = %+v", reg.FleetReg)
	}
	hb := fc.await(t, opusnet.MsgHeartbeat)
	if hb.Heartbeat == nil || hb.Heartbeat.ID != "node-a" || hb.Heartbeat.Capacity != 7 {
		t.Fatalf("heartbeat payload = %+v", hb.Heartbeat)
	}
	if hb.Heartbeat.Stats == nil || hb.Heartbeat.Stats.CellsExecuted != 42 {
		t.Fatalf("heartbeat did not piggyback stats: %+v", hb.Heartbeat.Stats)
	}

	// A dropped connection re-registers on its own.
	fc.dropConns()
	if again := fc.await(t, opusnet.MsgFleetRegister); again.FleetReg.ID != "node-a" {
		t.Fatalf("re-registration payload = %+v", again.FleetReg)
	}
}

func TestAgentDrain(t *testing.T) {
	fc := startFakeCoord(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-d",
		Addr:        "serve-addr",
		Interval:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fc.await(t, opusnet.MsgFleetRegister)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx, "test"); err != nil {
		t.Fatal(err)
	}
	d := fc.await(t, opusnet.MsgDrain)
	if d.DrainReq == nil || d.DrainReq.ID != "node-d" || d.DrainReq.Reason != "test" {
		t.Fatalf("drain payload = %+v", d.DrainReq)
	}
}

// TestAgentDrainWithoutConnection: a drain with no live registration
// connection dials a fresh one rather than failing.
func TestAgentDrainWithoutConnection(t *testing.T) {
	fc := startFakeCoord(t)
	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-x",
		Addr:        "serve-addr",
		Interval:    time.Hour, // no redial before the drain
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	fc.await(t, opusnet.MsgFleetRegister)
	fc.dropConns()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := a.Drain(ctx, "late"); err != nil {
		t.Fatal(err)
	}
	if d := fc.await(t, opusnet.MsgDrain); d.DrainReq.ID != "node-x" {
		t.Fatalf("drain payload = %+v", d.DrainReq)
	}
}

// TestAgentRedialBackoffResets pins the redial backoff contract with a
// stepped (never actually sleeping) clock: consecutive failed redials
// double the wait from Interval up to MaxBackoff, and a successful
// re-registration resets the next failure's wait to the base Interval —
// a healed-then-reoutaged coordinator must not inherit the previous
// outage's ceiling.
func TestAgentRedialBackoffResets(t *testing.T) {
	fc := startFakeCoord(t)
	var failDial atomic.Bool
	failDial.Store(true)

	testDone := make(chan struct{})
	sleeps := make(chan time.Duration)
	proceed := make(chan struct{})
	const interval = 10 * time.Millisecond

	a, err := StartAgent(AgentConfig{
		Coordinator: fc.ln.Addr().String(),
		ID:          "node-b",
		Addr:        "serve-addr",
		Interval:    interval,
		MaxBackoff:  4 * interval,
		Dial: func(addr string) (net.Conn, error) {
			if failDial.Load() {
				return nil, fmt.Errorf("injected dial failure")
			}
			return net.DialTimeout("tcp", addr, 5*time.Second)
		},
		sleepFn: func(d time.Duration) {
			select {
			case sleeps <- d:
			case <-testDone:
				return
			}
			select {
			case <-proceed:
			case <-testDone:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: release the sleep hook, then join
	// the agent — so a failed assertion reports instead of deadlocking.
	t.Cleanup(a.Close)
	t.Cleanup(func() { close(testDone) })

	nextSleep := func() time.Duration {
		t.Helper()
		select {
		case d := <-sleeps:
			return d
		case <-time.After(30 * time.Second):
			t.Fatal("agent never slept")
			return 0
		}
	}
	step := func() {
		select {
		case proceed <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("agent never resumed")
		}
	}

	// Outage one: the backoff doubles and caps.
	for i, want := range []time.Duration{interval, 2 * interval, 4 * interval, 4 * interval} {
		if got := nextSleep(); got != want {
			t.Fatalf("redial sleep %d = %v, want %v", i+1, got, want)
		}
		if i == 3 {
			failDial.Store(false) // coordinator heals before the last retry fires
		}
		step()
	}

	fc.await(t, opusnet.MsgFleetRegister)
	// A heartbeat proves the agent saw the registration's ack: dropping
	// the connection before the ack would fail the registration, which
	// rightly keeps the backoff.
	fc.await(t, opusnet.MsgHeartbeat)

	// Outage two: the connection drops and dialing fails again. The
	// successful registration in between must have reset the backoff.
	failDial.Store(true)
	fc.dropConns()
	if got := nextSleep(); got != interval {
		t.Fatalf("first redial sleep after re-registration = %v, want base %v (backoff not reset)", got, interval)
	}
	step()
}

func TestAgentConfigValidation(t *testing.T) {
	bad := []AgentConfig{
		{ID: "a", Addr: "b"},          // no coordinator
		{Coordinator: "c", Addr: "b"}, // no id
		{Coordinator: "c", ID: "a"},   // no serving address
	}
	for _, cfg := range bad {
		if _, err := StartAgent(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
