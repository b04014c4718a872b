package exp

import (
	"context"
	"sync"
	"testing"
)

// TestObserverSeesMissesOnly pins the duration-observer contract: every
// computed (miss-path) result is reported exactly once with its stage
// label, and cache hits never invoke the observer.
func TestObserverSeesMissesOnly(t *testing.T) {
	e := New(2)
	var mu sync.Mutex
	got := map[string]int{}
	e.SetObserver(func(stage string, seconds float64) {
		if seconds < 0 {
			t.Errorf("negative duration %v for stage %q", seconds, stage)
		}
		mu.Lock()
		got[stage]++
		mu.Unlock()
	})
	compute := func(context.Context) (any, error) { return 1, nil }
	if _, err := e.DoCostCtx(context.Background(), "build:a", 1, compute); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DoCostCtx(context.Background(), "time:a", 1, compute); err != nil {
		t.Fatal(err)
	}
	if _, err := e.DoCostCtx(context.Background(), "unstaged", 1, compute); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // hits: must not observe
		if _, err := e.DoCostCtx(context.Background(), "build:a", 1, compute); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := map[string]int{"build": 1, "time": 1, "": 1}
	for stage, n := range want {
		if got[stage] != n {
			t.Errorf("observer saw stage %q %d times, want %d (all: %v)", stage, got[stage], n, got)
		}
	}
}

// TestObserverRemovable verifies a nil SetObserver detaches the hook.
func TestObserverRemovable(t *testing.T) {
	e := New(1)
	calls := 0
	e.SetObserver(func(string, float64) { calls++ })
	e.SetObserver(nil)
	if _, err := e.DoCostCtx(context.Background(), "build:x", 1, func(context.Context) (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("detached observer still called %d times", calls)
	}
}
