package exp

import (
	"context"
	"errors"
	"testing"
)

// TestLookupCountsHitWithStage: a completed key is found with its
// value and counted once, as a hit of its stage; a missing key is not
// found and not counted.
func TestLookupCountsHitWithStage(t *testing.T) {
	e := New(1)
	if _, err := e.DoCostCtx(context.Background(), "time:w1", 1, func(context.Context) (any, error) { return 7, nil }); err != nil {
		t.Fatal(err)
	}
	v, found, err := e.Lookup("time:w1")
	if !found || err != nil || v != 7 {
		t.Fatalf("Lookup = %v, %v, %v; want 7, true, nil", v, found, err)
	}
	if _, found, _ := e.Lookup("time:w2"); found {
		t.Fatal("a missing key was found")
	}
	if st := e.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Stats() = %+v, want 1 hit (the lookup) and 1 miss (the Do)", st)
	}
	if st := e.StageStats()["time"]; st != (StageStats{Hits: 1, Misses: 1}) {
		t.Errorf("time stage = %+v, want {Hits:1 Misses:1}", st)
	}
}

// TestLookupTouchesLRU: an entry a lookup touches is the most recent,
// so the next eviction takes the other one.
func TestLookupTouchesLRU(t *testing.T) {
	e := NewBounded(1, 2)
	for _, k := range []string{"a", "b"} {
		if _, err := e.DoCostCtx(context.Background(), k, 1, func(context.Context) (any, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if _, found, _ := e.Lookup("a"); !found {
		t.Fatal("a not found")
	}
	if _, err := e.DoCostCtx(context.Background(), "c", 1, func(context.Context) (any, error) { return "c", nil }); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if _, found, _ := e.Lookup("a"); !found {
		t.Error("a was evicted although a lookup had touched it")
	}
	if _, found, _ := e.Lookup("b"); found {
		t.Error("b survived the eviction; the lookup did not touch a")
	}
}

// TestLookupRunningKeyNotFound: a running key is neither found nor
// counted, and the lookup does not wait for it.
func TestLookupRunningKeyNotFound(t *testing.T) {
	e := New(1)
	gate := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := e.DoCostCtx(context.Background(), "time:k", 1, func(context.Context) (any, error) { <-gate; return 1, nil })
		done <- err
	}()
	waitFor(t, "the computation to start", func() bool { return e.Stats().InFlight == 1 })
	if v, found, err := e.Lookup("time:k"); found || v != nil || err != nil {
		t.Errorf("Lookup of a running key = %v, %v, %v; want nothing", v, found, err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("Stats() = %+v, want no hit and 1 miss", st)
	}
	if st := e.StageStats()["time"]; st.Hits != 0 {
		t.Errorf("time stage = %+v, want no hit", st)
	}
}

// TestLookupMemoizedError: a memoized error comes back as the error,
// found and counted like a DoCostCtx hit.
func TestLookupMemoizedError(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	if _, err := e.DoCostCtx(context.Background(), "k", 1, func(context.Context) (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("DoCostCtx err = %v, want boom", err)
	}
	v, found, err := e.Lookup("k")
	if !found || v != nil || !errors.Is(err, boom) {
		t.Fatalf("Lookup = %v, %v, %v; want nil, true, boom", v, found, err)
	}
	if st := e.Stats(); st.Hits != 1 {
		t.Errorf("Stats() = %+v, want 1 hit", st)
	}
}

// TestLookupAbandonedNotFound: a computation that failed after its
// last waiter departed is abandoned, not memoized, so a lookup does
// not find it.
func TestLookupAbandonedNotFound(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.DoCostCtx(ctx, "k", 1, func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
		errc <- err
	}()
	waitFor(t, "the computation to start", func() bool { return e.Stats().InFlight == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitFor(t, "the computation to be abandoned", func() bool { return e.Stats().InFlight == 0 })
	if v, found, err := e.Lookup("k"); found || v != nil || err != nil {
		t.Errorf("Lookup of an abandoned key = %v, %v, %v; want nothing", v, found, err)
	}
	if st := e.Stats(); st.Hits != 0 {
		t.Errorf("Stats() = %+v, want no hit", st)
	}
}
