package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// Event is one structured request-lifecycle record. Seq and Time are
// stamped by the EventLog at Emit; everything else is caller-supplied.
// Fields are omitted from the JSON encoding when zero, so an event
// carries only what its type populates.
type Event struct {
	Seq  uint64 `json:"seq"`
	Time int64  `json:"time_unix_nano"`
	// Type is one of: submitted, deduped, sharded, cell_complete,
	// failover, result, cancel — plus the fleet-membership lifecycle:
	// join, leave, drain, drain_handoff.
	Type string `json:"type"`
	// Req is the server-assigned request id ("r17"); empty for events
	// not tied to one request (failover, sharded waves).
	Req string `json:"req,omitempty"`
	// Exp is the experiment name, or "cells" for a cell-subset request.
	Exp string `json:"exp,omitempty"`
	// Key is the dedup key of the underlying run, so joiners can be
	// correlated with the execution they attached to.
	Key string `json:"key,omitempty"`
	// Backend is the backend address for sharded/cell_complete/failover.
	Backend string `json:"backend,omitempty"`
	// Cells is the number of grid cells involved (assigned in a wave,
	// completed in a batch, reassigned on failover).
	Cells int `json:"cells,omitempty"`
	// Wave is the failover wave number for sharded/failover events.
	Wave int `json:"wave,omitempty"`
	// DurationNS is the request duration for result/cancel events.
	DurationNS int64 `json:"duration_ns,omitempty"`
	// Err carries the error string for failed results and failovers.
	Err string `json:"err,omitempty"`
	// Member is the stable fleet identity for membership lifecycle
	// events (join/leave/drain/drain_handoff); Backend carries the
	// member's serving address alongside it.
	Member string `json:"member,omitempty"`
	// Capacity is the member's advertised worker-pool size on join/drain.
	Capacity int `json:"capacity,omitempty"`
	// Reason distinguishes membership transitions: a leave is "drained"
	// or "heartbeat timeout"; a drain carries the sender's reason.
	Reason string `json:"reason,omitempty"`
	// Tenant is the requesting tenant for gateway events.
	Tenant string `json:"tenant,omitempty"`
	// Done/Total carry completion progress for gateway progress
	// events (Done of Total cells finished).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
}

// nower lets tests pin the clock; production uses time.Now.
type nower func() int64

// EventLog is a bounded ring of Events with non-blocking emission.
// When the ring is full the oldest event is dropped and a counter
// incremented — the request hot path never waits on a slow consumer.
// Subscribers receive live events over buffered channels with the same
// drop-oldest-never-block policy applied per subscriber.
type EventLog struct {
	now nower

	mu      sync.Mutex
	ring    []Event
	start   int // index of oldest
	n       int // occupied
	seq     uint64
	dropped uint64
	subs    map[*Subscription]struct{}
}

// NewEventLog builds a ring holding at most capacity events
// (minimum 1).
func NewEventLog(capacity int, now func() int64) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{
		now:  now,
		ring: make([]Event, capacity),
		subs: make(map[*Subscription]struct{}),
	}
}

// Emit stamps the event with the next sequence number and current time
// and appends it, dropping the oldest entry if the ring is full. It
// never blocks: subscriber channels are sent to with select-default,
// counting per-subscriber drops instead of waiting.
func (l *EventLog) Emit(ev Event) {
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	ev.Time = l.now()
	if l.n == len(l.ring) {
		l.start = (l.start + 1) % len(l.ring)
		l.n--
		l.dropped++
	}
	l.ring[(l.start+l.n)%len(l.ring)] = ev
	l.n++
	for s := range l.subs {
		select {
		case s.ch <- ev: //lint:allow maporder every subscriber gets the same event; delivery order across subscribers is immaterial
		default:
			s.dropped++
		}
	}
	l.mu.Unlock()
}

// Dropped reports how many events have been evicted from the ring
// before ever being snapshotted (the ring-full drop-oldest counter).
func (l *EventLog) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Snapshot returns the retained events, oldest first.
func (l *EventLog) Snapshot() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

func (l *EventLog) snapshotLocked() []Event {
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.ring[(l.start+i)%len(l.ring)]
	}
	return out
}

// Subscription is one live tail of the event log. Events arrive on C;
// if the consumer falls behind its buffer, newer events are counted in
// Dropped rather than blocking the emitter.
type Subscription struct {
	ch      chan Event
	log     *EventLog
	dropped uint64
	replay  []Event
}

// C is the live event channel.
func (s *Subscription) C() <-chan Event { return s.ch }

// Replay returns the ring snapshot taken atomically at subscribe time
// (SubscribeReplay only); these events precede everything on C with no
// gap or overlap.
func (s *Subscription) Replay() []Event { return s.replay }

// Dropped reports how many live events this subscriber missed because
// its buffer was full.
func (s *Subscription) Dropped() uint64 {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription; C is never closed (emitters only
// ever send), so consumers should select on their own done signal.
func (s *Subscription) Close() {
	s.log.mu.Lock()
	delete(s.log.subs, s)
	s.log.mu.Unlock()
}

// Subscribe attaches a live tail with the given channel buffer
// (minimum 1).
func (l *EventLog) Subscribe(buffer int) *Subscription {
	return l.subscribe(buffer, false)
}

// SubscribeReplay is Subscribe plus an atomic snapshot of the ring:
// Replay() holds everything emitted before the subscription, C carries
// everything after, with no gap between them.
func (l *EventLog) SubscribeReplay(buffer int) *Subscription {
	return l.subscribe(buffer, true)
}

func (l *EventLog) subscribe(buffer int, replay bool) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	s := &Subscription{ch: make(chan Event, buffer), log: l}
	l.mu.Lock()
	if replay {
		s.replay = l.snapshotLocked()
	}
	l.subs[s] = struct{}{}
	l.mu.Unlock()
	return s
}

// ErrEventsDropped reports that a WaitFor observation window lost
// events (ring eviction before replay, or subscriber-buffer overflow),
// so a stateful predicate may have missed matching input.
var ErrEventsDropped = fmt.Errorf("telemetry: events dropped during wait")

// WaitFor blocks until pred returns true, feeding it first the
// retained ring (oldest first) and then live events as they arrive.
// pred may be stateful (e.g. summing cell counts across events). It
// returns ErrEventsDropped if any event in the observation window was
// lost, and ctx.Err() on cancellation — so a successful return is a
// deterministic guarantee that the predicate's inputs were complete.
func (l *EventLog) WaitFor(ctx context.Context, pred func(Event) bool) error {
	sub := l.subscribeWaiter()
	defer sub.Close()
	for _, ev := range sub.replay {
		if pred(ev) {
			return nil
		}
	}
	if sub.Dropped() > 0 {
		return ErrEventsDropped
	}
	for {
		select {
		case ev := <-sub.ch:
			if pred(ev) {
				return nil
			}
		case <-ctx.Done():
			return ctx.Err()
		}
		if sub.Dropped() > 0 {
			return ErrEventsDropped
		}
	}
}

// subscribeWaiter is SubscribeReplay with a buffer sized to the ring
// and a check that nothing was evicted before the waiter attached: a
// waiter that starts after ring wraparound cannot claim completeness,
// so replay is trimmed to what survived and the caller detects drops
// via Dropped of the subscription (pre-attach ring drops are folded in
// by recording the baseline).
func (l *EventLog) subscribeWaiter() *Subscription {
	l.mu.Lock()
	s := &Subscription{ch: make(chan Event, 4*len(l.ring)), log: l}
	s.replay = l.snapshotLocked()
	s.dropped = l.dropped // ring evictions before attach count as missed input
	l.subs[s] = struct{}{}
	l.mu.Unlock()
	return s
}

// MarshalJSONLines renders events as newline-delimited JSON, the
// format served by the /events endpoint and consumed by tests.
func MarshalJSONLines(events []Event) ([]byte, error) {
	var out []byte
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
		out = append(out, '\n')
	}
	return out, nil
}
