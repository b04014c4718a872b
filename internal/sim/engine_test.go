package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"photonrail/internal/units"
)

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
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
		e.At(5, func() { order = append(order, i) })
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
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
		e.Immediately(func() { got = append(got, e.Now()) })
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

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.At(5, func() { ev.Cancel() })
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.At(units.Duration(i), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	end := e.Run()
	if count != 3 {
		t.Errorf("fired %d events, want 3", count)
	}
	if end != 3 {
		t.Errorf("stopped at %v, want 3", end)
	}
	// Run again resumes.
	e.Run()
	if count != 10 {
		t.Errorf("after resume fired %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []units.Duration
	for _, at := range []units.Duration{5, 10, 15, 20} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(12) fired %d events, want 2", len(fired))
	}
	if e.Now() != 12 {
		t.Errorf("Now() = %v, want 12", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("after Run fired %d total, want 4", len(fired))
	}
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
			e.At(at, func() { fired = append(fired, at) })
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

func TestBarrierReleasesAtLastArrival(t *testing.T) {
	e := NewEngine()
	var releasedAt units.Duration = -1
	b := NewBarrier(e, 3, func(last units.Duration) { releasedAt = last })
	e.At(10, b.Arrive)
	e.At(40, b.Arrive)
	e.At(25, b.Arrive)
	e.Run()
	if releasedAt != 40 {
		t.Errorf("barrier released at %v, want 40 (slowest rank)", releasedAt)
	}
	if !b.Released() {
		t.Error("barrier not marked released")
	}
}

func TestBarrierPartial(t *testing.T) {
	e := NewEngine()
	released := false
	b := NewBarrier(e, 2, func(units.Duration) { released = true })
	e.At(10, b.Arrive)
	e.Run()
	if released {
		t.Error("barrier released with 1/2 arrivals")
	}
	if b.Arrived() != 1 {
		t.Errorf("Arrived() = %d, want 1", b.Arrived())
	}
}

func TestBarrierOverArrivalPanics(t *testing.T) {
	e := NewEngine()
	b := NewBarrier(e, 1, func(units.Duration) {})
	b.Arrive()
	defer func() {
		if recover() == nil {
			t.Error("over-arrival did not panic")
		}
	}()
	b.Arrive()
}

func TestBarrierZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBarrier(0) did not panic")
		}
	}()
	NewBarrier(NewEngine(), 0, func(units.Duration) {})
}

func TestPostFireAndForgetOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.PostAt(30, func() { order = append(order, 3) })
	e.PostAt(10, func() { order = append(order, 1) })
	e.At(10, func() {
		order = append(order, 2) // FIFO after the PostAt(10) event
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
	if e.Fired() != 5 {
		t.Errorf("Fired() = %d, want 5", e.Fired())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d, want 0", e.Pending())
	}
}

func TestPostArgReusesOneClosure(t *testing.T) {
	e := NewEngine()
	var got []int
	collect := func(v any) { got = append(got, v.(int)) }
	e.PostArgAt(20, collect, 2)
	e.PostArgAt(10, collect, 1)
	e.At(10, func() {
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
		"PostAt":       func(e *Engine) { e.PostAt(5, func() {}) },
		"PostAfter":    func(e *Engine) { e.PostAfter(-1, func() {}) },
		"PostArgAt":    func(e *Engine) { e.PostArgAt(5, func(any) {}, nil) },
		"PostArgAfter": func(e *Engine) { e.PostArgAfter(-1, func(any) {}, nil) },
	} {
		post := post
		e := NewEngine()
		e.At(10, func() {
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

// Pooled events must be recycled through the freelist: after a fired
// event's storage returns, a subsequent Post reuses it instead of
// allocating, and a drained engine released to the pool comes back with
// clock and counters reset.
func TestPooledEventRecyclingAndRelease(t *testing.T) {
	e := AcquireEngine()
	fired := 0
	for i := 0; i < 100; i++ {
		e.PostAt(units.Duration(i), func() { fired++ })
	}
	e.Run()
	if fired != 100 {
		t.Fatalf("fired %d, want 100", fired)
	}
	// Every event fired and returned its storage: the freelist should
	// satisfy later Posts, same-instant (FIFO) and future (heap) alike.
	if e.free == nil {
		t.Fatal("no recycled events on the freelist after a pooled run")
	}
	ev := e.free
	ranNow := false
	e.PostNow(func() { ranNow = true })
	if e.free == ev || ev.fn == nil || ev.at != e.Now() {
		t.Error("PostNow did not reuse the freelist head")
	}
	ev = e.free
	e.PostAfter(5, func() {})
	if e.free == ev || ev.fn == nil || ev.at != e.Now()+5 {
		t.Error("PostAfter did not reuse the freelist head")
	}
	e.Run()
	if !ranNow || e.Pending() != 0 {
		t.Fatalf("ran=%v pending=%d after Run", ranNow, e.Pending())
	}
	if e.free != ev {
		t.Error("a fired pooled event did not return to the freelist head")
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
	if e2.Now() != 0 || e2.Pending() != 0 || e2.Fired() != 0 {
		t.Errorf("acquired engine not reset: now=%v pending=%d fired=%d",
			e2.Now(), e2.Pending(), e2.Fired())
	}
}

// Release with events still queued must not leak their callbacks: queued
// pooled events are recycled, and cancellable events keep their handle
// semantics (Time reports the scheduled instant).
func TestReleaseDrainsQueuedEvents(t *testing.T) {
	e := AcquireEngine()
	e.PostAt(50, func() { t.Error("queued pooled event fired across Release") })
	ev := e.At(70, func() {})
	if ev.Time() != 70 {
		t.Errorf("Time() = %v, want 70", ev.Time())
	}
	e.Release()
	e2 := AcquireEngine()
	defer e2.Release()
	e2.Run()
}
