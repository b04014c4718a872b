package exp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestDoCtxPreCancelledNeverComputes(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.DoCostCtx(ctx, "k", 1, func(context.Context) (any, error) {
		t.Error("fn ran under a pre-cancelled context")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.Misses != 0 {
		t.Fatalf("misses = %d, want 0", st.Misses)
	}
}

func TestMapCtxCancelReturnsPromptly(t *testing.T) {
	e := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	done := make(chan error, 1)
	go func() {
		_, err := MapProgressCtx(ctx, e, 8, func(ctx context.Context, i int) (int, error) {
			entered <- struct{}{}
			select {
			case <-gate:
				return i, nil
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}, nil)
		done <- err
	}()
	<-entered // at least one job is mid-flight
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("MapProgressCtx did not return promptly after cancellation")
	}
	close(gate)
}

func TestMapCtxCancelStopsScheduling(t *testing.T) {
	// One worker, jobs gated: cancel while the first job runs, then
	// release it — no second job may have started.
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	var started atomic.Int64
	finished := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := MapProgressCtx(ctx, e, 20, func(ctx context.Context, i int) (int, error) {
			started.Add(1)
			entered <- struct{}{}
			<-gate
			if started.Load() == 1 {
				close(finished)
			}
			return i, nil
		}, nil)
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	close(gate)
	<-finished // the in-flight job winds down after MapProgressCtx returned
	// Give any (incorrect) straggler a moment to start before asserting.
	time.Sleep(10 * time.Millisecond)
	if n := started.Load(); n != 1 {
		t.Fatalf("%d jobs started, want 1 (cancel must stop scheduling)", n)
	}
}

func TestDoCtxCancelledWaiterDoesNotPoisonSharedComputation(t *testing.T) {
	// A (background ctx) starts the computation; B joins it and is then
	// cancelled. B must return ctx.Err() promptly; the computation's own
	// context must NOT be cancelled (A is still waiting); A must get the
	// value; exactly one computation runs.
	e := New(4)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var computations atomic.Int64
	fn := func(ctx context.Context) (any, error) {
		computations.Add(1)
		close(entered)
		select {
		case <-gate:
			return 42, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	resA := make(chan any, 1)
	errA := make(chan error, 1)
	go func() {
		v, err := e.DoCostCtx(context.Background(), "shared", 1, fn)
		resA <- v
		errA <- err
	}()
	<-entered
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	errB := make(chan error, 1)
	go func() {
		_, err := e.DoCostCtx(ctxB, "shared", 1, fn)
		errB <- err
	}()
	waitFor(t, "B to join the in-flight computation", func() bool { return e.Stats().Hits == 1 })
	cancelB()
	select {
	case err := <-errB:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("B err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter did not return promptly")
	}
	close(gate)
	if v, err := <-resA, <-errA; err != nil || v != 42 {
		t.Fatalf("A = %v, %v; want 42 (B's cancellation must not kill the shared computation)", v, err)
	}
	if n := computations.Load(); n != 1 {
		t.Fatalf("%d computations ran, want 1", n)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (no duplicated computation)", st.Misses)
	}
}

func TestDoCtxLastWaiterDepartureCancelsComputation(t *testing.T) {
	// A single waiter departs: the computation's detached context fires,
	// the cancellation error is NOT memoized, and the next request for
	// the key recomputes cleanly.
	e := New(4)
	var calls atomic.Int64
	cancelled := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // honor detachment: stop when told nobody wants us
			close(cancelled)
			return nil, ctx.Err()
		}
		return 7, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.DoCostCtx(ctx, "k", 1, fn)
		errc <- err
	}()
	waitFor(t, "the computation to start", func() bool { return e.Stats().InFlight == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("computation context not cancelled after its last waiter departed")
	}
	// The abandoned result must not have been memoized.
	v, err := e.DoCostCtx(context.Background(), "k", 1, fn)
	if err != nil || v != 7 {
		t.Fatalf("recompute = %v, %v; want 7 (cancellation must not be memoized)", v, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("fn ran %d times, want 2", n)
	}
}

func TestDoCtxResultIgnoringCancelIsStillMemoized(t *testing.T) {
	// A computation whose fn ignores the detached cancellation and
	// returns a value anyway is memoized normally: the work was done,
	// later callers should reuse it.
	e := New(4)
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		calls.Add(1)
		close(entered)
		<-release // keep running regardless of ctx
		return "kept", nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := e.DoCostCtx(ctx, "k", 1, fn)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	close(release)
	waitFor(t, "the detached computation to finish", func() bool { return e.Stats().InFlight == 0 })
	v, err := e.DoCostCtx(context.Background(), "k", 1,
		func(context.Context) (any, error) { return nil, errors.New("recomputed") })
	if err != nil || v != "kept" {
		t.Fatalf("got %v, %v; want the memoized %q", v, err, "kept")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
}

func TestCachedCtxTyped(t *testing.T) {
	e := New(2)
	v, err := CachedCostCtx(context.Background(), e, "typed", 1, func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("got %d, %v", v, err)
	}
	if _, err := CachedCostCtx(context.Background(), e, "typed-err", 2,
		func(context.Context) (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("error swallowed")
	}
}
