package exp

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingFn returns a CachedCostCtx-able fn that counts executions per key.
func countingFn(counts *sync.Map, key string) func(context.Context) (string, error) {
	return func(context.Context) (string, error) {
		v, _ := counts.LoadOrStore(key, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		return "v:" + key, nil
	}
}

func executions(counts *sync.Map, key string) int64 {
	v, ok := counts.Load(key)
	if !ok {
		return 0
	}
	return v.(*atomic.Int64).Load()
}

func TestBoundedEvictsLeastRecentlyUsed(t *testing.T) {
	e := NewBounded(1, 3)
	var counts sync.Map
	for _, k := range []string{"a", "b", "c"} {
		if _, err := CachedCostCtx(context.Background(), e, k, 1, countingFn(&counts, k)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes least recent, then overflow with "d".
	if _, err := CachedCostCtx(context.Background(), e, "a", 1, countingFn(&counts, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedCostCtx(context.Background(), e, "d", 1, countingFn(&counts, "d")); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// "a" survived its touch; "b" was the victim and recomputes.
	if _, err := CachedCostCtx(context.Background(), e, "a", 1, countingFn(&counts, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedCostCtx(context.Background(), e, "b", 1, countingFn(&counts, "b")); err != nil {
		t.Fatal(err)
	}
	if n := executions(&counts, "a"); n != 1 {
		t.Errorf("a computed %d times, want 1 (kept by LRU touch)", n)
	}
	if n := executions(&counts, "b"); n != 2 {
		t.Errorf("b computed %d times, want 2 (evicted)", n)
	}
}

func TestCostAwareEviction(t *testing.T) {
	e := NewBounded(1, 10)
	var counts sync.Map
	for _, k := range []string{"a", "b", "c"} {
		if _, err := CachedCostCtx(context.Background(), e, k, 1, countingFn(&counts, k)); err != nil {
			t.Fatal(err)
		}
	}
	// A heavy (traced-style) entry pushes the sum to 11 > 10: exactly the
	// oldest cheap entry goes.
	if _, err := CachedCostCtx(context.Background(), e, "traced", 8, countingFn(&counts, "traced")); err != nil {
		t.Fatal(err)
	}
	if got := e.CachedCost(); got != 10 {
		t.Fatalf("cached cost = %d, want 10", got)
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, err := CachedCostCtx(context.Background(), e, "a", 1, countingFn(&counts, "a")); err != nil {
		t.Fatal(err)
	}
	if n := executions(&counts, "a"); n != 2 {
		t.Errorf("a computed %d times, want 2 (evicted by the heavy entry)", n)
	}
}

func TestMostRecentEntrySurvivesOversizedCost(t *testing.T) {
	e := NewBounded(1, 1)
	var counts sync.Map
	// Costlier than the whole bound: still cached while most recent, so
	// repeat hits are served.
	if _, err := CachedCostCtx(context.Background(), e, "huge", 5, countingFn(&counts, "huge")); err != nil {
		t.Fatal(err)
	}
	if _, err := CachedCostCtx(context.Background(), e, "huge", 5, countingFn(&counts, "huge")); err != nil {
		t.Fatal(err)
	}
	if n := executions(&counts, "huge"); n != 1 {
		t.Fatalf("huge computed %d times, want 1", n)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", st)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	e := New(1)
	for i := 0; i < 1000; i++ {
		if _, err := CachedCostCtx(context.Background(), e, "k"+strconv.Itoa(i), 100, func(context.Context) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Evictions != 0 {
		t.Fatalf("evictions = %d on unbounded engine", st.Evictions)
	}
}

func TestInFlightCounter(t *testing.T) {
	e := New(4)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _ = CachedCostCtx(context.Background(), e, "slow", 1, func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if st := e.Stats(); st.InFlight != 1 {
		t.Fatalf("inflight = %d, want 1", st.InFlight)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("inflight never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResetKeepsInFlightSingleflight is the regression test for the
// ResetCache race: resetting while a computation is in flight used to
// drop the entry, so a concurrent request for the same key started a
// second, duplicate computation. In-flight entries now survive a reset.
func TestResetKeepsInFlightSingleflight(t *testing.T) {
	e := New(4)
	release := make(chan struct{})
	started := make(chan struct{})
	var computed atomic.Int64
	first := make(chan int, 1)
	go func() {
		v, _ := CachedCostCtx(context.Background(), e, "k", 1, func(context.Context) (int, error) {
			computed.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		first <- v
	}()
	<-started
	e.ResetCache() // must NOT orphan the running computation
	second := make(chan int, 1)
	go func() {
		v, _ := CachedCostCtx(context.Background(), e, "k", 1, func(context.Context) (int, error) {
			computed.Add(1)
			return -1, nil // would be a duplicated simulation
		})
		second <- v
	}()
	// Give the second caller time to (wrongly) start a fresh computation.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if v := <-first; v != 42 {
		t.Fatalf("first caller got %d", v)
	}
	select {
	case v := <-second:
		if v != 42 {
			t.Fatalf("second caller got %d, want the joined in-flight 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second caller lost after reset")
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1 (singleflight across reset)", n)
	}
}

// TestResetHammerNeverDuplicatesInFlight hammers ResetCache while many
// workers request a small key set and asserts the core invariant: at no
// instant do two computations for one key overlap, and no caller is
// ever lost or handed a wrong value.
func TestResetHammerNeverDuplicatesInFlight(t *testing.T) {
	e := NewBounded(8, 4) // small bound: eviction races too
	keys := []string{"a", "b", "c"}
	running := make(map[string]*atomic.Int64)
	for _, k := range keys {
		running[k] = new(atomic.Int64)
	}
	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.ResetCache()
			}
		}
	}()
	var overlap atomic.Bool
	_, err := MapProgressCtx(context.Background(), e, 400, func(_ context.Context, i int) (string, error) {
		k := keys[i%len(keys)]
		return CachedCostCtx(context.Background(), e, k, 1, func(context.Context) (string, error) {
			if running[k].Add(1) > 1 {
				overlap.Store(true)
			}
			time.Sleep(100 * time.Microsecond)
			running[k].Add(-1)
			return "v:" + k, nil
		})
	}, nil)
	close(stop)
	resetter.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if overlap.Load() {
		t.Fatal("two computations for one key overlapped under ResetCache hammering")
	}
}
