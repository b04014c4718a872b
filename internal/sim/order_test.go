package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"photonrail/internal/units"
)

// refEngine is the firing-order oracle: a plain list of pending events,
// each run picking the earliest by (time, scheduling order). It keeps
// Engine's clock rules: firing sets the clock to the event's time, and
// RunUntil leaves the clock at least at its deadline.
type refEngine struct {
	now     units.Duration
	seq     uint64
	pending []*refEvent
	stopped bool
	fire    func(id int)
}

type refEvent struct {
	at   units.Duration
	seq  uint64
	id   int
	dead bool
}

func (r *refEngine) schedule(at units.Duration, id int) *refEvent {
	ev := &refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	r.pending = append(r.pending, ev)
	return ev
}

func (r *refEngine) runUntil(deadline units.Duration) {
	r.stopped = false
	for !r.stopped && len(r.pending) > 0 {
		min := 0
		for i, ev := range r.pending {
			if ev.at < r.pending[min].at || ev.at == r.pending[min].at && ev.seq < r.pending[min].seq {
				min = i
			}
		}
		ev := r.pending[min]
		if ev.at > deadline {
			return
		}
		r.pending = append(r.pending[:min], r.pending[min+1:]...)
		if ev.dead {
			continue
		}
		r.now = ev.at
		r.fire(ev.id)
	}
}

// orderWorld runs one random schedule on a real Engine or on the
// oracle. Each event's behaviour when it fires — the events it
// schedules (by which call, at which delay), the handle it cancels,
// whether it stops the run — is drawn from its own id, so both sides
// act alike exactly as long as they fire alike.
type orderWorld struct {
	seed    int64
	budget  int // events left to create
	ids     int
	fired   []int
	handles []func() // cancels of handle-returning events, in creation order
	// schedule posts a new event id through call kind k at now+d.
	schedule func(k int, d units.Duration, id int)
	stop     func()
}

// delays mixes same-instant hand-offs with short delays, so events due
// at one instant arrive both from earlier instants and from that
// instant itself.
var delays = []units.Duration{0, 0, 0, 1, 2, 3, 7}

func (w *orderWorld) newID() int {
	w.budget--
	w.ids++
	return w.ids
}

func (w *orderWorld) onFire(id int) {
	w.fired = append(w.fired, id)
	rng := rand.New(rand.NewSource(w.seed*7919 + int64(id)))
	for n := rng.Intn(4); n > 0 && w.budget > 0; n-- {
		w.schedule(rng.Intn(numCalls), delays[rng.Intn(len(delays))], w.newID())
	}
	if len(w.handles) > 0 && rng.Intn(5) == 0 {
		w.handles[rng.Intn(len(w.handles))]()
	}
	if rng.Intn(40) == 0 {
		w.stop()
	}
}

// The scheduling calls a random event may use: handle-returning ones
// (At, After, Immediately) and fire-and-forget ones (Post*, PostArg*).
const numCalls = 9

func runEngineWorld(seed int64, steps []units.Duration) (*orderWorld, []string) {
	w := &orderWorld{seed: seed, budget: 400}
	e := NewEngine()
	onArg := func(a any) { w.onFire(a.(int)) }
	w.schedule = func(k int, d units.Duration, id int) {
		fn := func() { w.onFire(id) }
		var ev *Event
		switch k {
		case 0:
			ev = e.At(e.Now()+d, fn)
		case 1:
			ev = e.After(d, fn)
		case 2:
			ev = e.Immediately(fn)
		case 3:
			e.PostAt(e.Now()+d, fn)
		case 4:
			e.PostAfter(d, fn)
		case 5:
			e.PostNow(fn)
		case 6:
			e.PostArgAt(e.Now()+d, onArg, id)
		case 7:
			e.PostArgAfter(d, onArg, id)
		case 8:
			e.PostArgNow(onArg, id)
		}
		if ev != nil {
			w.handles = append(w.handles, ev.Cancel)
		}
	}
	w.stop = e.Stop
	return w, drive(w, steps, e.Now, e.Run, e.RunUntil, e.Pending)
}

func runRefWorld(seed int64, steps []units.Duration) (*orderWorld, []string) {
	w := &orderWorld{seed: seed, budget: 400}
	r := &refEngine{fire: w.onFire}
	w.schedule = func(k int, d units.Duration, id int) {
		if k == 2 || k == 5 || k == 8 { // the *Now calls and Immediately
			d = 0
		}
		ev := r.schedule(r.now+d, id)
		if k <= 2 {
			w.handles = append(w.handles, func() { ev.dead = true })
		}
	}
	w.stop = func() { r.stopped = true }
	run := func() units.Duration {
		r.runUntil(math.MaxInt64)
		return r.now
	}
	runUntil := func(deadline units.Duration) units.Duration {
		r.runUntil(deadline)
		if r.now < deadline {
			r.now = deadline
		}
		return r.now
	}
	return w, drive(w, steps, func() units.Duration { return r.now }, run, runUntil,
		func() int { return len(r.pending) })
}

// drive seeds a few events from outside any callback before each step,
// then runs the step: a negative step is Run, any other is RunUntil at
// that deadline. It logs the clock and queue depth after every step.
func drive(w *orderWorld, steps []units.Duration, now func() units.Duration,
	run func() units.Duration, runUntil func(units.Duration) units.Duration, pending func() int) []string {
	var log []string
	for i, step := range steps {
		rng := rand.New(rand.NewSource(w.seed*104729 + int64(i)))
		for n := 1 + rng.Intn(3); n > 0 && w.budget > 0; n-- {
			w.schedule(rng.Intn(numCalls), delays[rng.Intn(len(delays))]*units.Duration(1+rng.Intn(4)), w.newID())
		}
		var end units.Duration
		if step < 0 {
			end = run()
		} else {
			end = runUntil(step)
		}
		log = append(log, fmt.Sprintf("step %d: end %v now %v pending %d fired %d", i, end, now(), pending(), len(w.fired)))
	}
	end := run()
	log = append(log, fmt.Sprintf("drain: end %v now %v pending %d fired %d", end, now(), pending(), len(w.fired)))
	return log
}

// TestEngineOrderMatchesReference checks the engine's firing order
// against the oracle on generated schedules: callbacks post nested
// events at zero and non-zero delays through every scheduling call,
// cancel earlier events, and stop the run, while drive alternates
// Run with RunUntil at random deadlines — some behind the clock, some
// between pending events. The fired sequence, the clock and the queue
// depth must agree after every step.
func TestEngineOrderMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		steps := make([]units.Duration, 3+rng.Intn(6))
		var at units.Duration
		for i := range steps {
			if rng.Intn(4) == 0 {
				steps[i] = -1 // Run
				continue
			}
			at += units.Duration(rng.Intn(12)) - 2
			if at < 0 {
				at = 0
			}
			steps[i] = at
		}
		got, gotLog := runEngineWorld(seed, steps)
		want, wantLog := runRefWorld(seed, steps)
		if fmt.Sprint(got.fired) != fmt.Sprint(want.fired) {
			t.Fatalf("seed %d: fired\n %v\nwant\n %v", seed, got.fired, want.fired)
		}
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d: steps\n %q\nwant\n %q", seed, gotLog, wantLog)
		}
		if len(got.fired) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
