package opusnet

import (
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"photonrail/internal/collective"
	"photonrail/internal/opus"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// realClock drives the opus controller with wall-clock timers. All
// callbacks run under the server mutex, preserving the controller's
// single-threaded discipline.
type realClock struct {
	mu    *sync.Mutex
	start time.Time
}

func (c *realClock) Now() units.Duration { return units.Duration(time.Since(c.start).Nanoseconds()) }

func (c *realClock) After(d units.Duration, fn func()) {
	time.AfterFunc(time.Duration(d), func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		fn()
	})
}

func (c *realClock) Immediately(fn func()) {
	// The controller defers queue processing through Immediately so that
	// same-instant requests coalesce; in real time "the same instant" is
	// the current mutex critical section, so running inline is correct —
	// the caller already holds the lock.
	fn()
}

// Server is the Opus controller as a TCP service.
type Server struct {
	lis *Listener

	mu   sync.Mutex
	ctrl *opus.Controller
	// table is the controller's circuit table, and groups the same
	// groups by name (the comm-group table of §4.1): a registered group
	// is numbered and added to both.
	table  *opus.CircuitTable
	groups map[string]*collective.Group
	// pendingSync[group] collects per-rank acquire arrivals until the
	// whole group has checked in (the group-sync step).
	pendingSync map[string]*groupSync
}

type groupSync struct {
	waiting map[int]func(*Message) // rank -> reply sender
	seqs    map[int]uint64
}

// ServerConfig parameterizes NewServer.
type ServerConfig struct {
	// Cluster shapes the rails and port plan.
	Cluster *topo.Cluster
	// ReconfigLatency is the emulated OCS switching time.
	ReconfigLatency units.Duration
	// Addr is the TCP listen address, e.g. "127.0.0.1:0".
	Addr string
}

// NewServer starts the controller and listens. Close stops it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("opusnet: nil cluster")
	}
	s := &Server{
		groups:      make(map[string]*collective.Group),
		pendingSync: make(map[string]*groupSync),
	}
	clock := &realClock{mu: &s.mu, start: time.Now()}
	plan := opus.PortPlan{
		Cluster:     cfg.Cluster,
		PortsPerGPU: cfg.Cluster.NIC.Ports,
		RingPairs:   cfg.Cluster.NIC.Ports / 2,
	}
	s.table = opus.NewCircuitTable(plan, nil)
	ctrl, err := opus.NewController(clock, s.table, cfg.ReconfigLatency)
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl
	s.lis, err = Listen(cfg.Addr, nil, func(err error) { log.Printf("opusnet: accept: %v", err) })
	if err != nil {
		return nil, err
	}
	// Every controller reply is required: a shim waits on each one.
	// Grant callbacks fire under s.mu, so a reply must never block on
	// the socket: ServeConn queues it, and closes a connection too far
	// behind to queue one (the peer sees an error) rather than parking
	// the reply under s.mu, where it would deadlock every other
	// connection's dispatch. Replies after a connection ends, such as a
	// grant for a departed rank, are dropped.
	s.lis.Start(func(msg *Message, reply func(*Message, bool), _ *ConnState) {
		s.dispatch(msg, func(m *Message) { reply(m, true) })
	})
	return s, nil
}

// Addr returns the listen address for clients to dial.
func (s *Server) Addr() string { return s.lis.Addr() }

// Close stops accepting, tears down live connections, and waits for
// connection handlers to finish.
func (s *Server) Close() error { return s.lis.Close() }

func (s *Server) dispatch(msg *Message, reply func(*Message)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fail := func(err error) {
		reply(&Message{Type: MsgErr, Seq: msg.Seq, Error: err.Error()})
	}
	switch msg.Type {
	case MsgRegister:
		if _, err := s.registerLocked(msg); err != nil {
			fail(err)
			return
		}
		reply(&Message{Type: MsgAck, Seq: msg.Seq})
	case MsgAcquire:
		if err := s.acquireLocked(msg, reply); err != nil {
			fail(err)
		}
	case MsgRelease:
		g, ok := s.groups[msg.Group]
		if !ok {
			fail(fmt.Errorf("opusnet: release of unknown group %q", msg.Group))
			return
		}
		if err := s.ctrl.Release(topo.RailID(msg.Rail), g); err != nil {
			fail(err)
			return
		}
		reply(&Message{Type: MsgAck, Seq: msg.Seq})
	case MsgProvision:
		g, ok := s.groups[msg.Group]
		if !ok {
			fail(fmt.Errorf("opusnet: provision of unknown group %q", msg.Group))
			return
		}
		if err := s.ctrl.Provision(topo.RailID(msg.Rail), g); err != nil {
			fail(err)
			return
		}
		reply(&Message{Type: MsgAck, Seq: msg.Seq})
	case MsgStatsReq:
		st := s.ctrl.Stats()
		reply(&Message{Type: MsgStatsResp, Seq: msg.Seq, Stats: &StatsPayload{
			Reconfigurations:    st.Reconfigurations,
			FastGrants:          st.FastGrants,
			QueuedGrants:        st.QueuedGrants,
			BlockedTimeNS:       int64(st.BlockedTime),
			ProvisionedRequests: st.ProvisionedRequests,
		}})
	default:
		fail(fmt.Errorf("opusnet: unknown message type %q", msg.Type))
	}
}

// registerLocked installs a group in the comm-group table, verifying
// idempotent re-registration. A new group takes the next number and
// joins the controller's circuit table, which refuses a group whose
// circuits cannot be derived.
func (s *Server) registerLocked(msg *Message) (*collective.Group, error) {
	if msg.Group == "" || len(msg.Ranks) < 2 {
		return nil, fmt.Errorf("opusnet: register needs a name and at least 2 ranks")
	}
	ranks := make([]topo.GPUID, len(msg.Ranks))
	for i, r := range msg.Ranks {
		ranks[i] = topo.GPUID(r)
	}
	g := &collective.Group{ID: len(s.groups), Name: msg.Group, Axis: parallelism.Axis(msg.Axis), Ranks: ranks}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if old, ok := s.groups[msg.Group]; ok {
		if len(old.Ranks) != len(g.Ranks) {
			return nil, fmt.Errorf("opusnet: group %q re-registered with different members", msg.Group)
		}
		for i := range old.Ranks {
			if old.Ranks[i] != g.Ranks[i] {
				return nil, fmt.Errorf("opusnet: group %q re-registered with different members", msg.Group)
			}
		}
		return old, nil
	}
	if err := s.table.Add(g); err != nil {
		return nil, err
	}
	s.groups[msg.Group] = g
	return g, nil
}

// acquireLocked implements group sync: the controller-level Acquire
// fires only when every member rank has asked, and its grant
// acknowledges all of them (§4.1 steps 2–5).
func (s *Server) acquireLocked(msg *Message, reply func(*Message)) error {
	g, ok := s.groups[msg.Group]
	if !ok {
		return fmt.Errorf("opusnet: acquire of unregistered group %q", msg.Group)
	}
	if !g.Contains(topo.GPUID(msg.Rank)) {
		return fmt.Errorf("opusnet: rank %d is not a member of %q", msg.Rank, msg.Group)
	}
	sync, ok := s.pendingSync[msg.Group]
	if !ok {
		sync = &groupSync{waiting: make(map[int]func(*Message)), seqs: make(map[int]uint64)}
		s.pendingSync[msg.Group] = sync
	}
	if _, dup := sync.waiting[msg.Rank]; dup {
		return fmt.Errorf("opusnet: rank %d already has a pending acquire for %q", msg.Rank, msg.Group)
	}
	sync.waiting[msg.Rank] = reply
	sync.seqs[msg.Rank] = msg.Seq
	if len(sync.waiting) < g.Size() {
		return nil // wait for the slowest rank (group sync)
	}
	delete(s.pendingSync, msg.Group)
	// One controller-level acquisition per member keeps the
	// active-transfer accounting symmetric with per-rank releases.
	// Ranks are issued in sorted order: the controller runs grant
	// callbacks in attach order, so iterating the waiting map directly
	// would make queue order and grant telemetry vary run to run.
	ranks := make([]int, 0, len(sync.waiting))
	for rank := range sync.waiting {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	for _, rank := range ranks {
		send := sync.waiting[rank]
		seq := sync.seqs[rank]
		cb := func() { send(&Message{Type: MsgAck, Seq: seq}) }
		if err := s.ctrl.Acquire(topo.RailID(msg.Rail), g, cb); err != nil {
			return err
		}
	}
	return nil
}
