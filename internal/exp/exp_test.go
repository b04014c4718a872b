package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderStable(t *testing.T) {
	e := New(8)
	out, err := MapProgressCtx(context.Background(), e, 100, func(_ context.Context, i int) (int, error) { return i * i, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapLowestIndexError(t *testing.T) {
	// Single worker, so jobs run serially in goroutine-scheduling order
	// and every job before the failing one completes. Fail-fast: the
	// error returned is the lowest-index error among the jobs that ran,
	// and jobs after the first failure never start.
	e := New(1)
	var ran atomic.Int64
	_, err := MapProgressCtx(context.Background(), e, 100, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return 0, fmt.Errorf("job %d failed", i)
	}, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "job ") {
		t.Fatalf("err = %v, want a job error", err)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("ran %d jobs, want 1 (fail-fast stops scheduling)", n)
	}
}

func TestMapFailFastStopsScheduling(t *testing.T) {
	// Regression for the pre-context error path: a failing job used to
	// wait for every remaining queued job to run before the fan-out
	// returned. With one worker the first job to run fails, and no further job may
	// start — the post-acquire stop check must catch the slot handoff
	// racing the stop broadcast.
	e := New(1)
	boom := errors.New("boom")
	var started atomic.Int64
	_, err := MapProgressCtx(context.Background(), e, 50, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		return 0, boom
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d jobs started, want 1 (no job may start after the first error)", n)
	}
}

func TestMapRespectsWorkerBound(t *testing.T) {
	const workers = 3
	e := New(workers)
	var cur, peak atomic.Int64
	var mu sync.Mutex
	_, err := MapProgressCtx(context.Background(), e, 50, func(_ context.Context, i int) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer cur.Add(-1)
		return i, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > %d workers", p, workers)
	}
}

func TestDoSingleflight(t *testing.T) {
	e := New(8)
	var computed atomic.Int64
	// 64 concurrent requests for the same key: exactly one computation.
	out, err := MapProgressCtx(context.Background(), e, 64, func(_ context.Context, i int) (int, error) {
		return CachedCostCtx(context.Background(), e, "shared", 1, func(context.Context) (int, error) {
			computed.Add(1)
			return 42, nil
		})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 42 {
			t.Fatalf("got %d", v)
		}
	}
	if n := computed.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 63 {
		t.Fatalf("stats = %+v, want 63 hits / 1 miss", st)
	}
}

func TestDoMemoizesErrors(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	var calls int
	for i := 0; i < 3; i++ {
		if _, err := CachedCostCtx(context.Background(), e, "failing", 1, func(context.Context) (int, error) {
			calls++
			return 0, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn called %d times, want 1 (errors memoized)", calls)
	}
}

func TestDoPanicReleasesWaiters(t *testing.T) {
	e := New(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic swallowed")
			}
		}()
		_, _ = CachedCostCtx(context.Background(), e, "exploding", 1, func(context.Context) (int, error) { panic("boom") })
	}()
	// The key must not be poisoned: later callers get an error, not a
	// permanent block.
	done := make(chan error, 1)
	go func() {
		_, err := CachedCostCtx(context.Background(), e, "exploding", 1, func(context.Context) (int, error) { return 1, nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("err = %v, want memoized panic error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second caller deadlocked on panicked entry")
	}
}

func TestResetCache(t *testing.T) {
	e := New(1)
	var calls int
	fn := func(context.Context) (int, error) { calls++; return calls, nil }
	if v, _ := CachedCostCtx(context.Background(), e, "k", 1, fn); v != 1 {
		t.Fatalf("first = %d", v)
	}
	e.ResetCache()
	if v, _ := CachedCostCtx(context.Background(), e, "k", 1, fn); v != 2 {
		t.Fatalf("after reset = %d, want recomputed", v)
	}
}

func TestNewDefaultsWorkers(t *testing.T) {
	if w := New(0).Workers(); w < 1 {
		t.Fatalf("workers = %d", w)
	}
	if w := New(5).Workers(); w != 5 {
		t.Fatalf("workers = %d, want 5", w)
	}
}

func TestKeyCanonical(t *testing.T) {
	key := func(name string, parts ...any) string {
		e := NewKeyEncoder(name)
		for _, p := range parts {
			switch v := p.(type) {
			case string:
				e.String(v)
			case int:
				e.Int(v)
			case float64:
				e.Float64(v)
			case bool:
				e.Bool(v)
			case []int:
				e.Ints(v)
			default:
				t.Fatalf("unhandled part %T", p)
			}
		}
		return e.Sum("sim")
	}
	k1 := key("sim", 1, "x", 2.5, true)
	if k2 := key("sim", 1, "x", 2.5, true); k1 != k2 {
		t.Fatal("identical parts hashed differently")
	}
	if !strings.HasPrefix(k1, "sim:") || len(k1) != len("sim:")+64 || strings.ToLower(k1) != k1 {
		t.Fatalf("key %q: want sim: and 64 lowercase hex digits", k1)
	}
	for i, changed := range []string{
		key("sim2", 1, "x", 2.5, true),
		key("sim", 2, "x", 2.5, true),
		key("sim", 1, "y", 2.5, true),
		key("sim", 1, "x", 2.25, true),
		key("sim", 1, "x", 2.5, false),
	} {
		if changed == k1 {
			t.Errorf("change %d collided with the original key", i)
		}
	}
	if key("k", 0.0) == key("k", math.Copysign(0, -1)) {
		t.Error("0 and -0 share a key; Float64 encodes IEEE bits")
	}
	// Part boundaries matter: ("ab", "c") != ("a", "bc"), and list
	// boundaries too: [1,2],[3] != [1],[2,3].
	if key("k", "ab", "c") == key("k", "a", "bc") {
		t.Error("string boundary not canonical")
	}
	if key("k", []int{1, 2}, []int{3}) == key("k", []int{1}, []int{2, 3}) {
		t.Error("list boundary not canonical")
	}
	if key("k", []int(nil)) != key("k", []int{}) {
		t.Error("a nil and an empty list encode differently")
	}
}

// TestKeyEncoding pins the byte encoding of every typed append, across
// the spill from the encoder's inline buffer.
func TestKeyEncoding(t *testing.T) {
	long := strings.Repeat("x", 300)
	e := NewKeyEncoder("k")
	e.String(long)
	e.Int(-2)
	e.Int64(300)
	e.Float64(1)
	e.Bool(true)
	e.Strings([]string{"a"})
	e.Float64s(nil)
	e.Bools([]bool{false})
	sub := NewKeyEncoder("s")
	e.Append(&sub)

	var want []byte
	want = append(want, KeyVersion, 1, 'k')
	want = append(want, 0xac, 0x02) // uvarint 300
	want = append(want, long...)
	want = append(want, 0x03)       // zigzag -2
	want = append(want, 0xd8, 0x04) // zigzag 300
	want = append(want, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0)
	want = append(want, 1)
	want = append(want, 1, 1, 'a')
	want = append(want, 0)
	want = append(want, 1, 0)
	want = append(want, KeyVersion, 1, 's')
	if got := append(append([]byte(nil), e.head...), e.buf[:e.n]...); !bytes.Equal(got, want) {
		t.Fatalf("encoding\n got %x\nwant %x", got, want)
	}
	sum := sha256.Sum256(want)
	if got, wantKey := e.Sum("st"), "st:"+hex.EncodeToString(sum[:]); got != wantKey {
		t.Fatalf("Sum = %s, want %s", got, wantKey)
	}
}

func TestMapProgressReportsEveryCompletion(t *testing.T) {
	e := New(4)
	var mu sync.Mutex
	var dones []int
	out, err := MapProgressCtx(context.Background(), e, 25, func(_ context.Context, i int) (int, error) { return i, nil },
		func(completed, total int) {
			if total != 25 {
				t.Errorf("total = %d", total)
			}
			mu.Lock()
			dones = append(dones, completed)
			mu.Unlock()
		})
	if err != nil || len(out) != 25 {
		t.Fatalf("out = %d, %v", len(out), err)
	}
	if len(dones) != 25 {
		t.Fatalf("progress calls = %d", len(dones))
	}
	// Completion counts are serialized: each call sees the running count.
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("dones = %v", dones)
		}
	}
	// Results still gathered by submission index.
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapProgressNilHookIsMap(t *testing.T) {
	e := New(2)
	out, err := MapProgressCtx(context.Background(), e, 3, func(_ context.Context, i int) (int, error) { return i * 2, nil }, nil)
	if err != nil || len(out) != 3 || out[2] != 4 {
		t.Fatalf("out = %v, %v", out, err)
	}
}

func TestMapProgressHookRunsOnFailure(t *testing.T) {
	// Fail-fast: the hook still ticks for every job that actually ran
	// (including the failing one), but jobs stopped from starting do not
	// fabricate completions.
	e := New(1)
	calls := 0
	var mu sync.Mutex
	_, err := MapProgressCtx(context.Background(), e, 4, func(_ context.Context, i int) (int, error) {
		return 0, errors.New("boom")
	}, func(completed, total int) {
		mu.Lock()
		calls++
		mu.Unlock()
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Errorf("progress calls = %d, want 1 (only the job that ran completes)", calls)
	}
}

func TestStageStatsAttributesHierarchicalKeys(t *testing.T) {
	e := NewBounded(1, 100)
	if e.MaxCost() != 100 {
		t.Fatalf("MaxCost() = %d, want 100", e.MaxCost())
	}
	compute := func(context.Context) (any, error) { return 1, nil }
	// Two stages plus an unstaged key; second DoCostCtx of each key is a hit.
	for i := 0; i < 2; i++ {
		if _, err := e.DoCostCtx(context.Background(), "build:w1", 1, compute); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DoCostCtx(context.Background(), "time:w1|f1", 2, compute); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DoCostCtx(context.Background(), "unstaged", 1, compute); err != nil {
			t.Fatal(err)
		}
		if _, err := e.DoCostCtx(context.Background(), ":leading-colon", 1, compute); err != nil {
			t.Fatal(err)
		}
	}
	st := e.StageStats()
	want := map[string]StageStats{
		"build": {Hits: 1, Misses: 1},
		"time":  {Hits: 1, Misses: 1},
	}
	if len(st) != len(want) {
		t.Fatalf("StageStats() = %v, want %v (unstaged keys must not be attributed)", st, want)
	}
	for name, w := range want {
		if st[name] != w {
			t.Errorf("stage %q = %+v, want %+v", name, st[name], w)
		}
	}
	// Whole-cache totals still count every key.
	if s := e.Stats(); s.Hits != 4 || s.Misses != 4 {
		t.Errorf("Stats() = %+v, want 4 hits / 4 misses", s)
	}
}

// TestStageStatsConcurrentStages counts hits and misses of stages that
// goroutines create and read at once (the counters' copy-on-write map
// is read without a lock), so no count is lost to a stage published
// twice.
func TestStageStatsConcurrentStages(t *testing.T) {
	e := New(4)
	compute := func(context.Context) (any, error) { return 1, nil }
	const goroutines, stages, rounds = 8, 5, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for st := 0; st < stages; st++ {
					key := fmt.Sprintf("s%d:%d", st, r)
					if _, err := e.DoCostCtx(context.Background(), key, 1, compute); err != nil {
						t.Error(err)
						return
					}
					if _, found, _ := e.Lookup(key); !found {
						t.Errorf("Lookup(%q) missed after DoCostCtx", key)
					}
				}
				_ = e.StageStats()
			}
		}()
	}
	wg.Wait()
	st := e.StageStats()
	if len(st) != stages {
		t.Fatalf("StageStats() has %d stages, want %d: %v", len(st), stages, st)
	}
	// Every key misses once; every other DoCostCtx call and every
	// Lookup hits.
	want := StageStats{Hits: 2*goroutines*rounds - rounds, Misses: rounds}
	for name, c := range st {
		if c != want {
			t.Errorf("stage %q = %+v, want %+v", name, c, want)
		}
	}
}
