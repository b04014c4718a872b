package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"photonrail/internal/units"
)

// pending counts the events queued on e.
func pending(e *Engine) int { return len(e.queue) + len(e.fifo) - e.head }

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.PostAfter(30, func() { order = append(order, 3) })
	e.PostAfter(10, func() { order = append(order, 1) })
	e.PostAfter(20, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %v, want 30", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.PostAfter(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of order: order[%d]=%d", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var got []units.Duration
	e.PostAfter(10, func() {
		got = append(got, e.Now())
		e.PostAfter(5, func() { got = append(got, e.Now()) })
		e.PostNow(func() { got = append(got, e.Now()) })
	})
	e.Run()
	want := []units.Duration{10, 10, 15}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

// A negative delay panics before any event has run, too.
func TestEngineSchedulingInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	NewEngine().PostAfter(-1, func() {})
}

// Property: for any random set of event times, the engine fires them in
// nondecreasing time order and ends at the maximum time.
func TestEngineFiringOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		e := NewEngine()
		times := make([]units.Duration, count)
		var fired []units.Duration
		for i := 0; i < count; i++ {
			at := units.Duration(rng.Int63n(1_000_000))
			times[i] = at
			e.PostAfter(at, func() { fired = append(fired, at) })
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		for i := range times {
			if fired[i] != times[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPostFireAndForgetOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.PostAfter(30, func() { order = append(order, 3) })
	e.PostAfter(10, func() { order = append(order, 1) })
	e.PostAfter(10, func() {
		order = append(order, 2) // FIFO after the first event at 10
		e.PostAfter(5, func() { order = append(order, 4) })
		e.PostNow(func() { order = append(order, 5) })
	})
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %v, want 30", end)
	}
	want := []int{1, 2, 5, 4, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if n := pending(e); n != 0 {
		t.Errorf("%d events pending after Run, want 0", n)
	}
}

func TestPostArgReusesOneClosure(t *testing.T) {
	e := NewEngine()
	var got []int
	collect := func(v any) { got = append(got, v.(int)) }
	e.PostArgAfter(20, collect, 2)
	e.PostArgAfter(10, collect, 1)
	e.PostAfter(10, func() {
		e.PostArgAfter(5, collect, 15)
		e.PostArgNow(collect, 10)
	})
	e.Run()
	want := []int{1, 10, 15, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPostInPastPanics(t *testing.T) {
	for name, post := range map[string]func(*Engine){
		"PostAfter":    func(e *Engine) { e.PostAfter(-1, func() {}) },
		"PostArgAfter": func(e *Engine) { e.PostArgAfter(-1, func(any) {}, nil) },
	} {
		post := post
		e := NewEngine()
		e.PostAfter(10, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s in the past did not panic", name)
				}
			}()
			post(e)
		})
		e.Run()
	}
}

// Events must be recycled through the freelist: after a fired event's
// storage returns, a subsequent Post reuses it instead of allocating,
// and a drained engine released to the pool comes back with its clock
// reset.
func TestPooledEventRecyclingAndRelease(t *testing.T) {
	e := AcquireEngine()
	fired := 0
	for i := 0; i < 100; i++ {
		e.PostAfter(units.Duration(i), func() { fired++ })
	}
	e.Run()
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
	// Every event fired and returned its storage: the freelist should
	// satisfy later Posts, same-instant (FIFO) and future (heap) alike.
	if e.free == nil {
		t.Fatal("no recycled events on the freelist after a run")
	}
	ev := e.free
	ranNow := false
	e.PostNow(func() { ranNow = true })
	if e.free == ev || ev.arg == nil || ev.at != e.Now() {
		t.Error("PostNow did not reuse the freelist head")
	}
	ev = e.free
	e.PostAfter(5, func() {})
	if e.free == ev || ev.arg == nil || ev.at != e.Now()+5 {
		t.Error("PostAfter did not reuse the freelist head")
	}
	e.Run()
	if !ranNow || pending(e) != 0 {
		t.Fatalf("ran=%v pending=%d after Run", ranNow, pending(e))
	}
	if e.free != ev || ev.fn != nil || ev.arg != nil {
		t.Error("a fired event did not return, cleared, to the freelist head")
	}
	// Steady state: posting and draining on a warm engine allocates
	// nothing, on either queue.
	step := func() {}
	stepArg := func(any) {}
	if n := testing.AllocsPerRun(50, func() {
		e.PostNow(step)
		e.PostAfter(1, step)
		e.PostArgNow(stepArg, nil)
		e.PostArgAfter(2, stepArg, nil)
		e.Run()
	}); n != 0 {
		t.Errorf("warm Post/Run allocated %.0f times per run, want 0", n)
	}
	e.Release()
	e2 := AcquireEngine()
	defer e2.Release()
	if e2.Now() != 0 || pending(e2) != 0 {
		t.Errorf("acquired engine not reset: now=%v pending=%d", e2.Now(), pending(e2))
	}
}

// Release with events still queued must not fire them or keep their
// callbacks: queued events are recycled with the rest.
func TestReleaseDrainsQueuedEvents(t *testing.T) {
	e := AcquireEngine()
	e.PostAfter(50, func() { t.Error("queued event fired across Release") })
	e.PostArgNow(func(any) { t.Error("queued FIFO event fired across Release") }, nil)
	e.Release()
	e2 := AcquireEngine()
	defer e2.Release()
	e2.Run()
}
