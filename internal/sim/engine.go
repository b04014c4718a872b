// Package sim is a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock in integer nanoseconds and a
// priority queue of events. Events scheduled for the same instant fire in
// the order they were scheduled (FIFO tie-break by a monotone sequence
// number), which makes every run bit-reproducible — a requirement for the
// A/B reconfiguration-latency sweeps in the photonic-rail evaluation.
//
// Events are fire-and-forget: a scheduled callback cannot be cancelled,
// and its storage is recycled once it fires, so a run allocates events
// up to its peak queue depth rather than one per event.
//
// An event due at the current instant (PostNow, PostArgNow, or a zero
// delay) joins a FIFO instead of the heap: a network simulation hands
// every ready task and every controller queue scan on at the instant it
// arises, and the FIFO admits and yields such events in constant time.
// Events fire in (time, seq) order across the FIFO and the heap alike.
package sim

import (
	"fmt"
	"sync"

	"photonrail/internal/units"
)

// event is a callback scheduled at a virtual time.
type event struct {
	at   units.Duration
	seq  uint64
	fn   func(any)
	arg  any
	next *event // freelist link while recycled
}

// Engine runs a discrete-event simulation. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now units.Duration
	seq uint64
	// queue is a binary min-heap of the events that were in the future
	// when scheduled, ordered by (at, seq).
	queue []*event
	// fifo[head:] are the events scheduled for the current instant, in
	// seq order. The clock advances only to the earliest pending event,
	// so it never passes an instant with FIFO events left.
	fifo []*event
	head int
	free *event // freelist of recycled events
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// before orders events by (time, seq): the firing order.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// less orders the event heap.
func (e *Engine) less(i, j int) bool { return before(e.queue[i], e.queue[j]) }

// next removes and returns the earliest pending event, by (at, seq)
// across the FIFO and the heap, or nil when none is left.
func (e *Engine) next() *event {
	if e.head < len(e.fifo) {
		ev := e.fifo[e.head]
		if len(e.queue) == 0 || before(ev, e.queue[0]) {
			e.fifo[e.head] = nil
			e.head++
			if e.head == len(e.fifo) {
				e.fifo = e.fifo[:0]
				e.head = 0
			}
			return ev
		}
	}
	if len(e.queue) == 0 {
		return nil
	}
	return e.popMin()
}

// push inserts an event into the heap. The heap is hand-rolled rather
// than container/heap because event scheduling is the simulator's
// hottest path and the interface indirection (plus the any-boxing in
// Push/Pop) is measurable there.
func (e *Engine) push(ev *event) {
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
func (e *Engine) popMin() *event {
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

// Release resets the engine — clock to zero, queue emptied — and
// returns it to the pool backing AcquireEngine. The caller must not use
// the engine afterwards.
func (e *Engine) Release() {
	for ev := e.next(); ev != nil; ev = e.next() {
		e.recycle(ev)
	}
	e.now = 0
	e.seq = 0
	enginePool.Put(e)
}

// recycle clears a fired (or drained) event and pushes it onto the
// freelist. The callback reference is dropped so recycled events do not
// pin their closures between runs.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

// Now returns the current virtual time.
func (e *Engine) Now() units.Duration { return e.now }

// post schedules fn(arg) at virtual time t: in the FIFO when t is the
// current instant, otherwise in the heap. The event's storage comes from
// the freelist when one is free, so the network executor, which fires
// hundreds of thousands of events per run, allocates events only up to
// its peak queue depth. Scheduling in the past panics: it is always a
// logic bug in the caller.
func (e *Engine) post(t units.Duration, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.free
	if ev == nil {
		ev = &event{}
	} else {
		e.free = ev.next
		ev.next = nil
	}
	ev.at, ev.seq, ev.fn, ev.arg = t, e.seq, fn, arg
	e.seq++
	if t == e.now {
		e.fifo = append(e.fifo, ev)
		return
	}
	e.push(ev)
}

// call runs a func() passed as an event's argument.
func call(fn any) { fn.(func())() }

// PostAfter schedules fn to run d after the current virtual time. A
// negative delay panics.
func (e *Engine) PostAfter(d units.Duration, fn func()) { e.post(e.now+d, call, fn) }

// PostNow schedules fn at the current instant, after all events already
// scheduled for this instant.
func (e *Engine) PostNow(fn func()) { e.post(e.now, call, fn) }

// PostArgAfter schedules fn(arg) to run d after the current virtual
// time. Passing a long-lived callback (e.g. one method-value closure per
// simulation) with a per-event argument avoids allocating a fresh
// closure per event — with recycled event storage, the steady-state
// scheduling path allocates nothing.
func (e *Engine) PostArgAfter(d units.Duration, fn func(any), arg any) { e.post(e.now+d, fn, arg) }

// PostArgNow schedules fn(arg) at the current instant, after all events
// already scheduled for this instant; see PostArgAfter.
func (e *Engine) PostArgNow(fn func(any), arg any) { e.post(e.now, fn, arg) }

// Run fires events in (time, seq) order until the queue drains, and
// returns the final virtual time.
func (e *Engine) Run() units.Duration {
	for ev := e.next(); ev != nil; ev = e.next() {
		e.now = ev.at
		fn, arg := ev.fn, ev.arg
		// Recycle first: the callback may schedule further events.
		e.recycle(ev)
		fn(arg)
	}
	return e.now
}
