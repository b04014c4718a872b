// Package railctl is the fleet control plane: the membership registry
// a coordinator embeds (every member of its fleet, static or
// self-registered) and the agent a raild daemon runs to participate.
//
// The shape follows the related control planes: like zos nodes, every
// member sends regular updates about its status, whoever sends them —
// a registered backend dials in, registers identity + capacity, and
// keeps itself alive with heartbeats that piggyback its serving stats;
// a static member (a coordinator -backends entry, identity reserved)
// is kept alive by the coordinator's own probes, reported through
// Probed and ProbeFailed. Like doublezero's controller, the
// coordinator owns membership state and the data plane (cell sharding)
// reads it. Registered liveness is heartbeat-edge driven — a member
// whose heartbeats stop past the TTL is marked dead without any
// per-request dial probing — and departure is graceful: a drain marks
// the member unassignable without counting as a failure.
package railctl

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"photonrail/internal/opusnet"
)

// State is one member's membership state.
type State string

const (
	// StateHealthy members receive cell assignments.
	StateHealthy State = "healthy"
	// StateDraining members finish in-flight batches but receive no new
	// assignments; set by a drain frame, sticky until re-registration.
	StateDraining State = "draining"
	// StateDrained members completed a graceful departure (their
	// heartbeats stopped while draining). Terminal until rejoin.
	StateDrained State = "drained"
	// StateDead members missed heartbeats without draining first, or —
	// for static members — failed a coordinator probe.
	StateDead State = "dead"
)

// DefaultHeartbeatTTL marks a member dead when its newest heartbeat is
// older than this; three DefaultHeartbeatInterval periods, so one lost
// frame does not flap membership.
const DefaultHeartbeatTTL = 3 * DefaultHeartbeatInterval

// DefaultHeartbeatInterval is the agent-side heartbeat cadence.
const DefaultHeartbeatInterval = 2 * time.Second

// Event is one membership lifecycle transition: "join" (registration,
// including a rejoin after death), "drain" (graceful-departure mark),
// "leave" (heartbeats stopped — Reason distinguishes a completed drain
// from a death).
type Event struct {
	Type     string
	ID       string
	Addr     string
	Capacity int
	Reason   string
}

// Config parameterizes NewRegistry.
type Config struct {
	// TTL is the heartbeat staleness bound; 0 means DefaultHeartbeatTTL.
	TTL time.Duration
	// Now replaces the clock for tests; nil means time.Now.
	Now func() time.Time
	// OnEvent, when non-nil, receives lifecycle events. Called without
	// the registry lock held and must not block.
	OnEvent func(Event)
}

// member is the registry's record of one fleet member.
type member struct {
	id            string
	addr          string
	capacity      int
	static        bool
	state         State
	lastHeartbeat time.Time
	stats         opusnet.CacheStatsPayload
	hasStats      bool
}

// Member is one member's state snapshot as Members reports it.
type Member struct {
	ID       string
	Addr     string
	Capacity int
	// Static marks a member added with AddStatic: its liveness comes
	// from coordinator probes, so it never expires and LastHeartbeat
	// stays zero.
	Static        bool
	State         State
	LastHeartbeat time.Time
	// Stats is the newest serving snapshot a heartbeat or probe carried;
	// HasStats distinguishes "reported zeros" from "never reported".
	Stats    opusnet.CacheStatsPayload
	HasStats bool
}

// ErrUnknownMember reports an operation on an identity the registry
// has never seen (or forgot): the sender must re-register.
var ErrUnknownMember = fmt.Errorf("railctl: unknown member")

// ErrStaticMember reports a registration, heartbeat, or drain naming a
// static member's identity: static identities are reserved for the
// coordinator's own probes.
var ErrStaticMember = fmt.Errorf("railctl: identity reserved for a static member")

// Registry is the coordinator-side membership table. All methods are
// safe for concurrent use; state transitions driven by the clock
// (death, drain completion) are applied lazily on every read, so a
// snapshot is always consistent with the injected Now.
type Registry struct {
	ttl     time.Duration
	now     func() time.Time
	onEvent func(Event)

	mu      sync.Mutex
	members map[string]*member
}

// NewRegistry builds an empty registry.
func NewRegistry(cfg Config) *Registry {
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultHeartbeatTTL
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Registry{
		ttl:     cfg.TTL,
		now:     cfg.Now,
		onEvent: cfg.OnEvent,
		members: make(map[string]*member),
	}
}

// emit delivers events collected under the lock; call unlocked.
func (r *Registry) emit(events []Event) {
	if r.onEvent == nil {
		return
	}
	for _, ev := range events {
		r.onEvent(ev)
	}
}

// sweepLocked applies clock-driven transitions: a healthy or draining
// registered member whose newest heartbeat is older than the TTL
// leaves — dead if it was healthy, drained if it was already draining
// (its graceful departure simply completed). Static members never
// expire: probes, not heartbeats, keep them. Returns the leave events
// to emit.
func (r *Registry) sweepLocked() []Event {
	cutoff := r.now().Add(-r.ttl)
	var stale []*member
	for _, m := range r.members {
		if !m.static && m.lastHeartbeat.Before(cutoff) && (m.state == StateHealthy || m.state == StateDraining) {
			stale = append(stale, m)
		}
	}
	// One sweep can expire several members; sort so their leave events
	// emit in a deterministic order.
	sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
	var events []Event
	for _, m := range stale {
		switch m.state {
		case StateHealthy:
			m.state = StateDead
			events = append(events, Event{Type: "leave", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "heartbeat timeout"})
		case StateDraining:
			m.state = StateDrained
			events = append(events, Event{Type: "leave", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "drained"})
		}
	}
	return events
}

// Register upserts a member as healthy. A known identity re-registers
// in place — a restarted daemon rejoins under its old identity and
// keeps its rendezvous shard, whatever address its new listener got.
// Capacity below 1 clamps to 1. A static member's identity is refused
// (ErrStaticMember): it is reserved for the coordinator's probes.
func (r *Registry) Register(id, addr string, capacity int) error {
	if id == "" {
		return fmt.Errorf("railctl: register without an id")
	}
	if addr == "" {
		return fmt.Errorf("railctl: register %q without an address", id)
	}
	if capacity < 1 {
		capacity = 1
	}
	r.mu.Lock()
	events := r.sweepLocked()
	m, ok := r.members[id]
	if ok && m.static {
		r.mu.Unlock()
		r.emit(events)
		return fmt.Errorf("%w %q", ErrStaticMember, id)
	}
	if !ok {
		m = &member{id: id}
		r.members[id] = m
	}
	m.addr = addr
	m.capacity = capacity
	m.state = StateHealthy
	m.lastHeartbeat = r.now()
	r.mu.Unlock()
	events = append(events, Event{Type: "join", ID: id, Addr: addr, Capacity: capacity})
	r.emit(events)
	return nil
}

// Heartbeat refreshes a member's liveness, capacity, and stats. An
// unknown identity errors (ErrUnknownMember) so the sender
// re-registers — the registry never resurrects state it does not have
// — and a static identity errors (ErrStaticMember).
// A heartbeat revives a dead member (the agent outlived a too-tight
// TTL), emitting a rejoin; a draining member stays draining — drain is
// sticky until re-registration.
func (r *Registry) Heartbeat(id string, capacity int, stats *opusnet.CacheStatsPayload) error {
	r.mu.Lock()
	events := r.sweepLocked()
	m, err := r.registeredLocked(id)
	if err != nil {
		r.mu.Unlock()
		r.emit(events)
		return err
	}
	if capacity >= 1 {
		m.capacity = capacity
	}
	m.lastHeartbeat = r.now()
	if stats != nil {
		m.stats = *stats
		m.hasStats = true
	}
	switch m.state {
	case StateDead:
		m.state = StateHealthy
		events = append(events, Event{Type: "join", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "heartbeat revival"})
	case StateDrained:
		m.state = StateDraining // still around, still departing
	}
	r.mu.Unlock()
	r.emit(events)
	return nil
}

// Drain marks a member draining: it keeps its in-flight work but
// receives no new assignments, and its eventual silence counts as a
// completed departure, not a death. Unknown identities error
// (ErrUnknownMember) — already not a member, so callers may treat that
// as success; static identities error (ErrStaticMember).
func (r *Registry) Drain(id, reason string) error {
	r.mu.Lock()
	events := r.sweepLocked()
	m, err := r.registeredLocked(id)
	if err != nil {
		r.mu.Unlock()
		r.emit(events)
		return err
	}
	if m.state == StateHealthy || m.state == StateDead {
		m.state = StateDraining
		m.lastHeartbeat = r.now() // a drain is proof of life
		events = append(events, Event{Type: "drain", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: reason})
	}
	r.mu.Unlock()
	r.emit(events)
	return nil
}

// registeredLocked returns the registered member id names, or the
// error its sender gets: the identity is unknown, or it is a static
// member's.
func (r *Registry) registeredLocked(id string) (*member, error) {
	m, ok := r.members[id]
	switch {
	case !ok:
		return nil, fmt.Errorf("%w %q", ErrUnknownMember, id)
	case m.static:
		return nil, fmt.Errorf("%w %q", ErrStaticMember, id)
	}
	return m, nil
}

// AddStatic adds a static member — capacity 1, healthy until a probe
// fails — whose identity is reserved against registration and whose
// liveness only Probed and ProbeFailed change; it replaces any member
// of that identity. Emits a join.
func (r *Registry) AddStatic(id, addr string) {
	r.mu.Lock()
	events := r.sweepLocked()
	r.members[id] = &member{id: id, addr: addr, capacity: 1, static: true, state: StateHealthy}
	r.mu.Unlock()
	r.emit(append(events, Event{Type: "join", ID: id, Addr: addr, Capacity: 1}))
}

// Probed records a coordinator probe a static member answered — a dial
// or a stats query; stats, when non-nil, is retained as the member's
// serving snapshot. A dead static member revives, emitting a join. A
// no-op for registered members, whose heartbeats own their liveness.
func (r *Registry) Probed(id string, stats *opusnet.CacheStatsPayload) {
	r.mu.Lock()
	events := r.sweepLocked()
	if m, ok := r.members[id]; ok && m.static {
		if stats != nil {
			m.stats = *stats
			m.hasStats = true
		}
		if m.state == StateDead {
			m.state = StateHealthy
			events = append(events, Event{Type: "join", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: "probe revival"})
		}
	}
	r.mu.Unlock()
	r.emit(events)
}

// ProbeFailed records a coordinator probe a static member did not
// answer: a healthy static member dies, emitting a leave with the
// reason, and stays dead until a probe answers. A no-op for registered
// members, whose heartbeats own their liveness.
func (r *Registry) ProbeFailed(id, reason string) {
	r.mu.Lock()
	events := r.sweepLocked()
	if m, ok := r.members[id]; ok && m.static && m.state == StateHealthy {
		m.state = StateDead
		events = append(events, Event{Type: "leave", ID: m.id, Addr: m.addr, Capacity: m.capacity, Reason: reason})
	}
	r.mu.Unlock()
	r.emit(events)
}

// Draining reports whether the member is departing (draining or
// drained) — the coordinator's batch loop checks this between batches
// to hand off a drainer's unsubmitted cells.
func (r *Registry) Draining(id string) bool {
	r.mu.Lock()
	m, ok := r.members[id]
	st := StateDead
	if ok {
		st = m.state
	}
	r.mu.Unlock()
	return ok && (st == StateDraining || st == StateDrained)
}

// Members returns every known member, sorted by ID, after applying
// clock-driven transitions.
func (r *Registry) Members() []Member {
	r.mu.Lock()
	events := r.sweepLocked()
	out := make([]Member, 0, len(r.members))
	for _, m := range r.members { //lint:allow maporder sorted below
		out = append(out, Member{
			ID: m.id, Addr: m.addr, Capacity: m.capacity, Static: m.static, State: m.state,
			LastHeartbeat: m.lastHeartbeat, Stats: m.stats, HasStats: m.hasStats,
		})
	}
	r.mu.Unlock()
	r.emit(events)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Assignable returns the members eligible for new work — healthy,
// with a fresh heartbeat or an unfailed probe — sorted by ID.
func (r *Registry) Assignable() []Member {
	all := r.Members()
	out := all[:0]
	for _, m := range all {
		if m.State == StateHealthy {
			out = append(out, m)
		}
	}
	return out
}

// Len reports how many members the registry knows (any state).
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.members)
}
