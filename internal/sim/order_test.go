package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"photonrail/internal/units"
)

// refEngine is the firing-order oracle: a plain list of pending events,
// each step picking the earliest by (time, scheduling order). Firing
// sets the clock to the event's time, as on Engine.
type refEngine struct {
	now     units.Duration
	seq     uint64
	pending []refEvent
	fire    func(id int)
}

type refEvent struct {
	at  units.Duration
	seq uint64
	id  int
}

func (r *refEngine) schedule(at units.Duration, id int) {
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
	r.seq++
}

func (r *refEngine) run() units.Duration {
	for len(r.pending) > 0 {
		min := 0
		for i, ev := range r.pending {
			if ev.at < r.pending[min].at || ev.at == r.pending[min].at && ev.seq < r.pending[min].seq {
				min = i
			}
		}
		ev := r.pending[min]
		r.pending = append(r.pending[:min], r.pending[min+1:]...)
		r.now = ev.at
		r.fire(ev.id)
	}
	return r.now
}

// orderWorld runs one random schedule on a real Engine or on the
// oracle. What an event does when it fires — the events it schedules,
// by which call and at which delay — is drawn from one generator in
// firing order, so both sides act alike exactly as long as they fire
// alike.
type orderWorld struct {
	rng    *rand.Rand
	budget int // events left to create
	ids    int
	fired  []int
	// schedule posts a new event id through call kind k, d from now.
	schedule func(k int, d units.Duration, id int)
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
	for n := w.rng.Intn(4); n > 0 && w.budget > 0; n-- {
		w.schedule(w.rng.Intn(numCalls), delays[w.rng.Intn(len(delays))], w.newID())
	}
}

// The scheduling calls a random event may use: PostAfter, PostNow,
// PostArgAfter and PostArgNow.
const numCalls = 4

func runEngineWorld(seed int64, rounds int) (*orderWorld, []string) {
	w := &orderWorld{rng: rand.New(rand.NewSource(seed)), budget: 400}
	e := NewEngine()
	onArg := func(a any) { w.onFire(a.(int)) }
	w.schedule = func(k int, d units.Duration, id int) {
		switch k {
		case 0:
			e.PostAfter(d, func() { w.onFire(id) })
		case 1:
			e.PostNow(func() { w.onFire(id) })
		case 2:
			e.PostArgAfter(d, onArg, id)
		case 3:
			e.PostArgNow(onArg, id)
		}
	}
	return w, drive(w, rounds, e.Now, e.Run)
}

func runRefWorld(seed int64, rounds int) (*orderWorld, []string) {
	w := &orderWorld{rng: rand.New(rand.NewSource(seed)), budget: 400}
	r := &refEngine{fire: w.onFire}
	w.schedule = func(k int, d units.Duration, id int) {
		if k == 1 || k == 3 { // the *Now calls
			d = 0
		}
		r.schedule(r.now+d, id)
	}
	return w, drive(w, rounds, func() units.Duration { return r.now }, r.run)
}

// drive seeds a few events from outside any callback before each round,
// then runs the queue dry. It logs the clock after every round.
func drive(w *orderWorld, rounds int, now func() units.Duration, run func() units.Duration) []string {
	var log []string
	for i := 0; i < rounds; i++ {
		for n := 1 + w.rng.Intn(3); n > 0 && w.budget > 0; n-- {
			w.schedule(w.rng.Intn(numCalls), delays[w.rng.Intn(len(delays))]*units.Duration(1+w.rng.Intn(4)), w.newID())
		}
		end := run()
		log = append(log, fmt.Sprintf("round %d: end %v now %v fired %d", i, end, now(), len(w.fired)))
	}
	return log
}

// TestEngineOrderMatchesReference checks the engine's firing order
// against the oracle on generated schedules: callbacks post nested
// events at zero and non-zero delays through every scheduling call,
// and events seeded between runs join a clock that earlier runs moved.
// The fired sequence and the clock must agree after every run.
func TestEngineOrderMatchesReference(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rounds := 1 + int(seed%6)
		got, gotLog := runEngineWorld(seed, rounds)
		want, wantLog := runRefWorld(seed, rounds)
		if fmt.Sprint(got.fired) != fmt.Sprint(want.fired) {
			t.Fatalf("seed %d: fired\n %v\nwant\n %v", seed, got.fired, want.fired)
		}
		if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
			t.Fatalf("seed %d: rounds\n %q\nwant\n %q", seed, gotLog, wantLog)
		}
		if len(got.fired) == 0 {
			t.Fatalf("seed %d: nothing fired", seed)
		}
	}
}
