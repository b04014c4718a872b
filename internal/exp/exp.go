// Package exp is the concurrent experiment engine behind the
// photonrail figure/table drivers: a bounded worker pool that executes
// independent simulation jobs in parallel, plus a memoizing result
// cache with singleflight semantics, so shared sub-results (e.g. the
// electrical baseline every sweep point normalizes against) are
// computed exactly once per engine and reused across experiments.
//
// The cache can be cost-bounded for long-running servers: every entry
// carries a caller-declared cost (heavier for results that pin more
// memory, e.g. full traces), and when the completed-entry cost sum
// exceeds the bound the least-recently-used entries are evicted.
// In-flight computations are never evicted and survive ResetCache, so
// singleflight deduplication holds across resets: two concurrent
// requests for one key never both compute, reset or not.
//
// The package has one memo call, DoCostCtx (CachedCostCtx is its typed
// form), and one fan-out, MapProgressCtx. Both take a context, with two
// cancellation guarantees:
//
//   - fan-out is fail-fast: the first job error — or a context
//     cancellation — stops scheduling the remaining jobs, and a
//     cancelled MapProgressCtx returns ctx.Err() promptly instead of
//     waiting out jobs it no longer wants;
//   - singleflight is detached: a computation is owned by the engine,
//     not by the caller that started it. A caller cancelling its
//     context departs immediately with ctx.Err(), but the shared
//     computation keeps running for the other callers that joined it;
//     only when the LAST waiter departs is the computation's own
//     context cancelled, and a computation that then fails with a
//     cancellation error is dropped rather than memoized, so a later
//     request recomputes cleanly.
//
// Lookup answers a key from the cache alone: it returns the memoized
// outcome (value or error) of a completed computation, counted and
// LRU-touched as a DoCostCtx hit would be, and finds nothing, counts
// nothing and starts nothing for a key that is missing or still
// running. A caller that holds several keys' results can thereby serve
// the warm ones where it stands and send only the rest to the pool,
// with every key still counted once.
//
// Results are always gathered by submission index, never by completion
// order, so a *successful* parallel run is byte-identical to a
// sequential one as long as the jobs themselves are deterministic (the
// discrete-event simulator is). On failure the guarantee is weaker by
// design: fail-fast stops scheduling once any job errors, so which
// jobs ran — and therefore which error surfaces when several could
// fail — depends on scheduling order.
//
// Every key the engine memoizes or coalesces on, and every durable
// result address built above it, is made by KeyEncoder: the key's name
// and the values that determine the result, written through typed
// appends in a fixed order into a versioned, self-delimiting binary
// encoding, hashed once with sha256. No key depends on reflection, on
// how Go spells a type, or on a memory address; KeyVersion changes
// whenever the encoding of any keyed type does.
package exp

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is a bounded worker pool with a memoizing result cache.
// Construct with New or NewBounded; the zero value is not usable.
type Engine struct {
	workers int
	slots   chan struct{}

	mu      sync.Mutex
	cache   map[string]*entry
	lru     *list.List // completed entries, most-recent at front
	maxCost int64      // 0 = unbounded
	curCost int64      // cost sum of completed entries

	hits, misses, evictions atomic.Uint64
	inflight                atomic.Int64

	// stages maps a stage name to its counters. The map is copied on
	// write: a new stage publishes a copy under stageMu, and the hit and
	// miss paths read the current one without a lock. Never nil.
	stageMu sync.Mutex
	stages  atomic.Pointer[map[string]*stageCounter]

	// observe, when set, receives the wall-clock duration of every
	// computed (miss-path) result, labeled with its stage — the raw feed
	// behind per-stage compute-latency histograms. It runs on the
	// computation goroutine with no engine lock held and must be cheap
	// and non-blocking; hits never pay for it.
	obsMu   sync.RWMutex
	observe func(stage string, seconds float64)
}

// SetObserver installs (or, with nil, removes) the per-computation
// duration observer; see the field doc for its contract.
func (e *Engine) SetObserver(fn func(stage string, seconds float64)) {
	e.obsMu.Lock()
	e.observe = fn
	e.obsMu.Unlock()
}

// observeCompute reports one computed result's duration to the
// observer, if any.
func (e *Engine) observeCompute(key string, seconds float64) {
	e.obsMu.RLock()
	fn := e.observe
	e.obsMu.RUnlock()
	if fn != nil {
		fn(stageOf(key), seconds)
	}
}

// stageCounter accumulates one stage's hit/miss telemetry.
type stageCounter struct{ hits, misses atomic.Uint64 }

// entry is one cache slot. done is closed when val/err are final, so
// concurrent requests for an in-flight key block instead of recomputing.
// While running the entry lives only in the cache map; on completion it
// is pushed onto the LRU list with its cost (running entries are never
// evicted and survive ResetCache, preserving singleflight).
//
// waiters counts the callers currently blocked on the computation; when
// it drops to zero before completion, runCtx is cancelled — the
// detached-singleflight contract. A computation that then finishes with
// an error under its cancelled runCtx is abandoned: dropped from the
// cache instead of memoized, so joiners that raced the cancellation
// retry with a fresh computation.
type entry struct {
	key  string
	done chan struct{}
	val  any
	err  error
	cost int64
	elem *list.Element // nil while running or after eviction

	runCtx context.Context
	cancel context.CancelFunc

	// Guarded by the engine mutex while running.
	waiters   int
	completed bool

	// Final-state flags, written before done closes.
	abandoned bool // cancelled-and-failed: not memoized, waiters retry
	panicked  bool // fn panicked: the creator re-panics, joiners error
	panicVal  any
}

// New builds an engine with the given worker count and an unbounded
// cache; workers <= 0 selects runtime.NumCPU().
func New(workers int) *Engine {
	return NewBounded(workers, 0)
}

// NewBounded builds an engine whose completed-entry cost sum is capped
// at maxCost (in the caller's cost units; DoCostCtx declares each
// entry's cost). maxCost <= 0 means unbounded. The
// most-recently-used entry is never evicted, so a single entry costlier
// than the whole bound still serves repeat hits while it stays hot.
func NewBounded(workers int, maxCost int64) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if maxCost < 0 {
		maxCost = 0
	}
	e := &Engine{
		workers: workers,
		slots:   make(chan struct{}, workers),
		cache:   make(map[string]*entry),
		lru:     list.New(),
		maxCost: maxCost,
	}
	e.stages.Store(&map[string]*stageCounter{})
	return e
}

// Workers reports the pool size.
func (e *Engine) Workers() int { return e.workers }

// MaxCost reports the cache cost bound (0 = unbounded).
func (e *Engine) MaxCost() int64 { return e.maxCost }

// Stats is the cache telemetry: Hits counts requests served from a
// memoized (or in-flight) computation, Misses counts computations run,
// Evictions counts completed entries dropped by the LRU bound, and
// InFlight is the number of computations currently running.
type Stats struct {
	Hits, Misses, Evictions uint64
	InFlight                int64
}

// Stats reports the cache telemetry accumulated since construction
// (ResetCache does not clear it).
func (e *Engine) Stats() Stats {
	return Stats{
		Hits:      e.hits.Load(),
		Misses:    e.misses.Load(),
		Evictions: e.evictions.Load(),
		InFlight:  e.inflight.Load(),
	}
}

// StageStats is one stage's slice of the cache telemetry; see
// Engine.StageStats.
type StageStats struct {
	Hits, Misses uint64
}

// StageStats reports per-stage hit/miss telemetry. Keys of the form
// "stage:rest" attribute their hits and misses to "stage", so a caller
// layering a staged pipeline over one cache (build → provision → time)
// can observe each stage's effectiveness separately; keys without a
// stage prefix are not attributed. Counters accumulate since
// construction and survive ResetCache, like Stats.
func (e *Engine) StageStats() map[string]StageStats {
	stages := *e.stages.Load()
	out := make(map[string]StageStats, len(stages))
	for name, c := range stages {
		out[name] = StageStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	}
	return out
}

// stageOf extracts the stage label from a hierarchical key, or "" when
// the key carries none.
func stageOf(key string) string {
	if i := strings.IndexByte(key, ':'); i > 0 {
		return key[:i]
	}
	return ""
}

// stage returns the counter for the key's stage, or nil for unstaged
// keys.
func (e *Engine) stage(key string) *stageCounter {
	name := stageOf(key)
	if name == "" {
		return nil
	}
	if c := (*e.stages.Load())[name]; c != nil {
		return c
	}
	e.stageMu.Lock()
	defer e.stageMu.Unlock()
	old := *e.stages.Load()
	if c := old[name]; c != nil {
		return c // another caller added the stage meanwhile
	}
	stages := make(map[string]*stageCounter, len(old)+1)
	for n, c := range old {
		stages[n] = c
	}
	c := &stageCounter{}
	stages[name] = c
	e.stages.Store(&stages)
	return c
}

// CachedCost reports the completed-entry cost sum currently held.
func (e *Engine) CachedCost() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.curCost
}

// ResetCache drops all memoized results. In-flight computations are
// kept: their waiters still resolve, their results are still installed
// on completion, and a concurrent request for one of their keys joins
// the running computation instead of duplicating it.
func (e *Engine) ResetCache() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for key, ent := range e.cache {
		if ent.elem == nil {
			continue // running: keep, so singleflight holds across the reset
		}
		e.lru.Remove(ent.elem)
		ent.elem = nil
		delete(e.cache, key)
	}
	e.curCost = 0
}

// DoCostCtx returns the memoized result of fn under key, computing it
// at most once per engine; concurrent callers of the same key join the
// in-flight computation instead of recomputing (singleflight). Errors
// are memoized too — the jobs keyed here are deterministic, so
// retrying cannot succeed.
//
// The computation is detached: fn runs on its own goroutine under its
// own context (NOT the caller's), so a caller whose ctx is cancelled
// returns ctx.Err() promptly without killing the computation for the
// other callers that joined it. The computation's context is cancelled
// only when its last waiter departs; if fn then returns an error, the
// result is dropped instead of memoized and the next request
// recomputes. fn must not itself submit work to the engine's pool
// (nested fan-out could exhaust the pool and deadlock).
//
// A panicking fn re-panics on the goroutine of the caller that started
// the computation (if it is still waiting); every other caller of the
// key receives a memoized error.
//
// cost weighs the entry against the engine's LRU bound (use higher
// costs for results that pin more memory, e.g. full traces).
func (e *Engine) DoCostCtx(ctx context.Context, key string, cost int64, fn func(ctx context.Context) (any, error)) (any, error) {
	if cost < 1 {
		cost = 1
	}
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e.mu.Lock()
		if ent, ok := e.cache[key]; ok {
			if ent.elem != nil {
				e.lru.MoveToFront(ent.elem)
			}
			if !ent.completed {
				ent.waiters++
			}
			e.mu.Unlock()
			e.hits.Add(1)
			if sc := e.stage(key); sc != nil {
				sc.hits.Add(1)
			}
			v, err, retry := e.wait(ctx, ent, false)
			if retry {
				continue // joined a computation abandoned by cancellation
			}
			return v, err
		}
		ent := &entry{key: key, done: make(chan struct{}), cost: cost, waiters: 1}
		//lint:allow ctxbg computations are deliberately detached from the first waiter's ctx; ent.cancel fires when the last waiter departs
		ent.runCtx, ent.cancel = context.WithCancel(context.Background())
		e.cache[key] = ent
		e.mu.Unlock()
		e.misses.Add(1)
		if sc := e.stage(key); sc != nil {
			sc.misses.Add(1)
		}
		e.inflight.Add(1)
		go e.compute(ent, fn) //lint:allow goroutinejoin waiters join per-key via ent.done in wait; abandoned computations self-terminate via ent.cancel
		v, err, retry := e.wait(ctx, ent, true)
		if retry {
			continue
		}
		return v, err
	}
}

// Lookup returns key's memoized outcome when its computation has
// completed: found is true, and v and err are what DoCostCtx would
// return for the key (a memoized error comes back as err). A found key
// is counted as a hit, with its stage, and moves to the front of the
// LRU, exactly as a DoCostCtx hit would. A key that is missing or
// still running is not found: Lookup starts nothing, waits on nothing
// and counts nothing, so a caller that goes on to DoCostCtx for it
// counts the key once.
func (e *Engine) Lookup(key string) (v any, found bool, err error) {
	e.mu.Lock()
	ent, ok := e.cache[key]
	if !ok || !ent.completed {
		e.mu.Unlock()
		return nil, false, nil
	}
	// A completed entry still in the map is memoized, so it is on the
	// LRU list: an abandoned one left the map when it completed.
	e.lru.MoveToFront(ent.elem)
	v, err = ent.val, ent.err
	e.mu.Unlock()
	e.hits.Add(1)
	if sc := e.stage(key); sc != nil {
		sc.hits.Add(1)
	}
	return v, true, err
}

// compute runs one detached computation and installs its outcome.
func (e *Engine) compute(ent *entry, fn func(ctx context.Context) (any, error)) {
	defer func() {
		// A panicking fn must still release waiters: record the failure
		// and close done, or every later caller of this key would block
		// forever on a poisoned entry. The panic value is kept so the
		// creating caller can re-raise it on its own goroutine.
		if r := recover(); r != nil {
			ent.panicked = true
			ent.panicVal = r
			ent.err = fmt.Errorf("exp: computation for key %q panicked", ent.key)
		}
		e.inflight.Add(-1)
		e.finish(ent)
	}()
	start := time.Now()
	ent.val, ent.err = fn(ent.runCtx)
	e.observeCompute(ent.key, time.Since(start).Seconds())
}

// finish installs a completed computation: memoized on the LRU list, or
// — when it failed under a cancelled run context — abandoned, so the
// cancellation of the last waiter is never memoized as the key's
// permanent result. Panic errors are memoized even under cancellation
// (a panic is deterministic brokenness, not a cancellation artifact).
func (e *Engine) finish(ent *entry) {
	e.mu.Lock()
	ent.completed = true
	if ent.err != nil && !ent.panicked && ent.runCtx.Err() != nil {
		ent.abandoned = true
		if e.cache[ent.key] == ent {
			delete(e.cache, ent.key)
		}
	} else {
		// A running entry always survives ResetCache, so it is still in
		// the map here and becomes evictable from now on.
		ent.elem = e.lru.PushFront(ent)
		e.curCost += ent.cost
		e.evictLocked()
	}
	e.mu.Unlock()
	ent.cancel() // release the detached context's resources
	close(ent.done)
}

// wait blocks until the entry completes or ctx is cancelled. The third
// return is true when the caller should retry the whole request: it
// joined a computation that was abandoned by cancellation.
func (e *Engine) wait(ctx context.Context, ent *entry, creator bool) (any, error, bool) {
	select {
	case <-ent.done:
	case <-ctx.Done():
		// The result may have landed in the same instant; prefer it.
		select {
		case <-ent.done:
		default:
			e.depart(ent)
			return nil, ctx.Err(), false
		}
	}
	if ent.panicked && creator {
		panic(ent.panicVal)
	}
	if ent.abandoned {
		return nil, nil, true
	}
	return ent.val, ent.err, false
}

// depart drops one waiter; the last waiter leaving a still-running
// computation cancels its detached context — from that point the
// computation is allowed (not required) to stop, and a cancellation
// error it returns is abandoned rather than memoized.
func (e *Engine) depart(ent *entry) {
	e.mu.Lock()
	last := false
	if !ent.completed {
		ent.waiters--
		last = ent.waiters == 0
	}
	e.mu.Unlock()
	if last {
		ent.cancel()
	}
}

// evictLocked drops least-recently-used completed entries until the
// cost sum fits the bound, always sparing the most-recent entry.
func (e *Engine) evictLocked() {
	if e.maxCost <= 0 {
		return
	}
	for e.curCost > e.maxCost && e.lru.Len() > 1 {
		back := e.lru.Back()
		victim := back.Value.(*entry)
		e.lru.Remove(back)
		victim.elem = nil
		delete(e.cache, victim.key)
		e.curCost -= victim.cost
		e.evictions.Add(1)
	}
}

// CachedCostCtx is the typed wrapper over DoCostCtx. The memoized
// value is shared by every caller of the key: treat it as read-only.
func CachedCostCtx[T any](ctx context.Context, e *Engine, key string, cost int64, fn func(ctx context.Context) (T, error)) (T, error) {
	v, err := e.DoCostCtx(ctx, key, cost, func(c context.Context) (any, error) { return fn(c) })
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// MapProgressCtx runs fn(ctx, 0), …, fn(ctx, n-1) across the engine's
// workers and gathers the results by submission index, so parallel
// output stays byte-identical to a sequential run. Fan-out is
// fail-fast: after the first job error no new jobs start
// (already-running jobs finish), and the lowest-index error among the
// jobs that ran is returned — which jobs those are depends on
// scheduling, so with several failing jobs the surfaced error can
// differ between runs. Jobs may call DoCostCtx or CachedCostCtx (which
// detach onto their own goroutine) but must not call MapProgressCtx —
// nested fan-out could exhaust the pool and deadlock.
//
// onDone, when non-nil, is called after each job finishes (in
// completion order, not submission order) with the running completed
// count and the total. Calls are serialized, so onDone may write to a
// shared sink without locking; it must not block, or it stalls the
// pool.
//
// Cancellation is prompt: a cancelled ctx stops scheduling, and
// MapProgressCtx returns ctx.Err() without waiting for already-running
// jobs to wind down (jobs that honor ctx — e.g. anything built on
// DoCostCtx — return quickly on their own). Stragglers may therefore
// still invoke onDone briefly after MapProgressCtx has returned; hooks
// must tolerate that.
func MapProgressCtx[T any](ctx context.Context, e *Engine, n int, fn func(ctx context.Context, i int) (T, error), onDone func(completed, total int)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	stop := make(chan struct{}) // closed on the first job error
	var stopOnce sync.Once
	var wg sync.WaitGroup
	var progressMu sync.Mutex
	completed := 0
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case e.slots <- struct{}{}:
			}
			defer func() { <-e.slots }()
			// The slot may have been granted in the same instant the
			// fan-out failed or was cancelled; re-check before running,
			// so no job starts after the first error is observed.
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			out[i], errs[i] = fn(ctx, i)
			if errs[i] != nil {
				stopOnce.Do(func() { close(stop) })
			}
			if onDone != nil {
				progressMu.Lock()
				completed++
				onDone(completed, n)
				progressMu.Unlock()
			}
		}(i)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
