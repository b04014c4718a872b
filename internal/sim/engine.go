// Package sim is a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in integer nanoseconds and a
// priority queue of events. Events scheduled for the same instant fire in
// the order they were scheduled (FIFO tie-break by a monotone sequence
// number), which makes every run bit-reproducible — a requirement for the
// A/B reconfiguration-latency sweeps in the photonic-rail evaluation.
//
// An event due at the current instant (Immediately, PostNow, PostArgNow,
// or a zero delay) joins a FIFO instead of the heap: a network
// simulation hands every ready task and every controller queue scan on
// at the instant it arises, and the FIFO admits and yields such events
// in constant time. Events fire in (time, seq) order across the FIFO
// and the heap alike.
package sim

import (
	"fmt"
	"math"
	"sync"

	"photonrail/internal/units"
)

// Event is a callback scheduled at a virtual time.
type Event struct {
	at     units.Duration
	seq    uint64
	fn     func()
	afn    func(any) // arg-carrying callback (Post*Arg); fn is nil
	arg    any
	dead   bool
	pooled bool   // fire-and-forget: recycled onto the freelist after firing
	next   *Event // freelist link while recycled
}

// Time returns the virtual time the event fires at.
func (e *Event) Time() units.Duration { return e.at }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired is a no-op.
func (e *Event) Cancel() { e.dead = true }

// Engine runs a discrete-event simulation. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now units.Duration
	seq uint64
	// queue is a binary min-heap of the events that were in the future
	// when scheduled, ordered by (at, seq).
	queue []*Event
	// fifo[head:] are the events scheduled for the instant that was
	// current at the time, in seq order. The clock never passes an
	// instant with FIFO events left, so these are sorted by (at, seq)
	// too; schedule keeps that true even when a stopped RunUntil leaves
	// the clock ahead of pending events.
	fifo    []*Event
	head    int
	stopped bool
	fired   uint64
	free    *Event // freelist of recycled fire-and-forget events
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// before orders events by (time, seq): the firing order.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// less orders the event heap.
func (e *Engine) less(i, j int) bool { return before(e.queue[i], e.queue[j]) }

// schedule queues a stamped event: in the FIFO when it is due now and
// no FIFO event is due later, otherwise in the heap.
func (e *Engine) schedule(ev *Event) {
	if ev.at == e.now && (e.head == len(e.fifo) || e.fifo[len(e.fifo)-1].at <= ev.at) {
		e.fifo = append(e.fifo, ev)
		return
	}
	e.push(ev)
}

// next removes and returns the earliest pending event, by (at, seq)
// across the FIFO and the heap, if it is due no later than deadline;
// otherwise it returns nil.
func (e *Engine) next(deadline units.Duration) *Event {
	if e.head < len(e.fifo) {
		ev := e.fifo[e.head]
		if len(e.queue) == 0 || before(ev, e.queue[0]) {
			if ev.at > deadline {
				return nil
			}
			e.fifo[e.head] = nil
			e.head++
			if e.head == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.head = 0
			}
			return ev
		}
	}
	if len(e.queue) == 0 || e.queue[0].at > deadline {
		return nil
	}
	return e.popMin()
}

// push inserts an event into the heap. The heap is hand-rolled rather
// than container/heap because event scheduling is the simulator's
// hottest path and the interface indirection (plus the any-boxing in
// Push/Pop) is measurable there.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	i := len(e.queue) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.queue[i], e.queue[parent] = e.queue[parent], e.queue[i]
		i = parent
	}
}

// popMin removes and returns the earliest event.
func (e *Engine) popMin() *Event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	e.queue = q
	// Sift the relocated root down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && e.less(l, smallest) {
			smallest = l
		}
		if r < n && e.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return ev
}

// enginePool recycles engines across simulation runs: a drained engine
// keeps its event-queue capacity and event freelist, so a run on a
// recycled engine allocates events only up to its peak queue depth.
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// AcquireEngine returns a reset engine from the process-wide pool.
// Release it with Engine.Release when the run is over; an engine that is
// never released is simply collected.
func AcquireEngine() *Engine {
	return enginePool.Get().(*Engine)
}

// Release resets the engine — clock to zero, queue emptied, counters
// cleared — and returns it to the pool backing AcquireEngine. The caller
// must not use the engine (or any *Event it returned) afterwards.
func (e *Engine) Release() {
	for ev := e.next(math.MaxInt64); ev != nil; ev = e.next(math.MaxInt64) {
		ev.fn = nil
		ev.afn = nil
		ev.arg = nil
		if ev.pooled {
			e.recycle(ev)
		}
	}
	e.now = 0
	e.seq = 0
	e.stopped = false
	e.fired = 0
	enginePool.Put(e)
}

// recycle clears a fired (or drained) pooled event and pushes it onto
// the freelist. The callback reference is dropped so recycled events do
// not pin their closures between runs.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.dead = false
	ev.next = e.free
	e.free = ev
}

// newPooledEvent pops a freelist event or allocates one.
func (e *Engine) newPooledEvent() *Event {
	ev := e.free
	if ev == nil {
		return &Event{pooled: true}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Duration { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are queued (including cancelled ones not
// yet drained).
func (e *Engine) Pending() int { return len(e.queue) + len(e.fifo) - e.head }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it is always a logic bug in the caller.
func (e *Engine) At(t units.Duration, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.schedule(ev)
	return ev
}

// After schedules fn to run d after the current virtual time.
func (e *Engine) After(d units.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Immediately schedules fn at the current instant, after all events already
// scheduled for this instant.
func (e *Engine) Immediately(fn func()) *Event { return e.At(e.now, fn) }

// PostAt schedules fn at absolute virtual time t as a fire-and-forget
// event: no handle is returned, the event cannot be cancelled, and its
// storage is recycled after it fires. Hot scheduling paths that never
// cancel (the network executor fires hundreds of thousands of these per
// run) use Post* to keep event allocation bounded by peak queue depth
// instead of total event count.
func (e *Engine) PostAt(t units.Duration, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.newPooledEvent()
	ev.at = t
	ev.seq = e.seq
	ev.fn = fn
	e.seq++
	e.schedule(ev)
}

// PostAfter schedules fn to run d after the current virtual time; see
// PostAt.
func (e *Engine) PostAfter(d units.Duration, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.PostAt(e.now+d, fn)
}

// PostNow schedules fn at the current instant, after all events already
// scheduled for this instant; see PostAt.
func (e *Engine) PostNow(fn func()) { e.PostAt(e.now, fn) }

// PostArgAt is PostAt for a callback taking one argument. Passing a
// long-lived callback (e.g. one method-value closure per simulation)
// with a per-event argument avoids allocating a fresh closure per event
// — with pooled event storage, the steady-state scheduling path
// allocates nothing.
func (e *Engine) PostArgAt(t units.Duration, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.newPooledEvent()
	ev.at = t
	ev.seq = e.seq
	ev.afn = fn
	ev.arg = arg
	e.seq++
	e.schedule(ev)
}

// PostArgAfter schedules fn(arg) to run d after the current virtual
// time; see PostArgAt.
func (e *Engine) PostArgAfter(d units.Duration, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.PostArgAt(e.now+d, fn, arg)
}

// PostArgNow schedules fn(arg) at the current instant, after all events
// already scheduled for this instant; see PostArgAt.
func (e *Engine) PostArgNow(fn func(any), arg any) { e.PostArgAt(e.now, fn, arg) }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// fire executes one dequeued event's callback after recycling its
// storage (the callback may schedule further events, so recycle first).
func (e *Engine) fire(ev *Event) {
	e.now = ev.at
	e.fired++
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	if ev.pooled {
		e.recycle(ev)
	}
	if afn != nil {
		afn(arg)
		return
	}
	fn()
}

// Run executes events until the queue drains or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() units.Duration {
	e.runUntil(math.MaxInt64)
	return e.now
}

// RunUntil executes events with firing time <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is advanced to the deadline.
func (e *Engine) RunUntil(deadline units.Duration) units.Duration {
	e.runUntil(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// runUntil fires events due no later than deadline, in (at, seq) order,
// until none is left or Stop is called.
func (e *Engine) runUntil(deadline units.Duration) {
	e.stopped = false
	for !e.stopped {
		ev := e.next(deadline)
		if ev == nil {
			return
		}
		if !ev.dead {
			e.fire(ev)
		}
	}
}
