package photonrail

import (
	"context"
	"sync"
	"sync/atomic"

	"photonrail/internal/exp"
	"photonrail/internal/netsim"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// Engine runs the package's figure/table experiments on a concurrent
// worker pool with a memoizing simulation cache. Independent simulation
// jobs (the sweep's latency points, the cost comparison's cluster
// sizes) execute in parallel; shared sub-results — above all the
// electrical baseline every sweep point normalizes against — are
// simulated exactly once per engine and reused across experiments.
//
// Output is deterministic and order-stable: results are gathered by
// submission index, never completion order, so an Engine with N workers
// produces byte-identical results to an Engine with one.
//
// Simulation runs as a staged pipeline with one memo entry per stage,
// all under the engine's single bounded LRU via hierarchical keys:
//
//	build:     Workload → *workload.Program (pure per workload; one
//	           immutable Program is shared by every fabric/latency
//	           variant, the electrical baseline included)
//	provision: (Workload, latency) → the provisioned-stable schedule,
//	           whose converged per-rail Profile also lands in a
//	           latency-free seed cache keyed on the Workload alone
//	time:      (Workload, Fabric) → one timed execution
//
// Each stage consults the stage below it through the same cache, so a
// 48-cell grid compiles each workload once, runs each reactive
// simulation once, and reuses both across every latency point.
type Engine struct {
	pool *exp.Engine

	// profMu guards the Provision stage's latency-free caches: interned
	// canonical profiles (content-equal profiles share one object, and
	// therefore one memoized speculation plan) and the converged-profile
	// seeds consulted when a new latency point starts its convergence
	// loop.
	profMu   sync.Mutex
	profiles map[string]*netsim.Profile
	seeds    map[string]*netsim.Profile

	seedHits, seedMisses atomic.Uint64

	// planMu guards the plan table: each grid's plan (see gridPlan) by
	// planKey, and the cells the table holds, capped at maxPlanCells.
	planMu    sync.Mutex
	plans     map[string]*gridPlan
	planCells int
}

// Cache entry costs, in simulation units: a traced result pins the full
// per-op trace (orders of magnitude more memory than the timing
// summary), so it weighs more against a bounded engine's budget.
const (
	costSim     = 1
	costTraced  = 8
	costProgram = 1
)

// maxInternedProfiles caps the Provision stage's profile intern table.
// Interning is purely an optimization (sharing memoized speculation
// plans between content-equal profiles), so when a long-running engine
// crosses the cap the table is simply dropped and restarted.
const maxInternedProfiles = 4096

// NewEngine builds an engine with the given worker count and an
// unbounded cache; workers <= 0 selects runtime.NumCPU(). Each engine
// owns an independent cache.
func NewEngine(workers int) *Engine {
	return newEngine(exp.New(workers))
}

// NewBoundedEngine builds an engine whose memo cache is capped at
// maxCost simulation units, evicting least-recently-used results once
// the cap is exceeded (plain simulations cost 1 unit, trace-recording
// runs cost more). maxCost <= 0 means unbounded. Bounded engines are
// what long-running servers (cmd/raild) use to stay memory-safe
// indefinitely; one-shot CLI runs keep the unbounded default.
func NewBoundedEngine(workers int, maxCost int64) *Engine {
	return newEngine(exp.NewBounded(workers, maxCost))
}

func newEngine(pool *exp.Engine) *Engine {
	return &Engine{
		pool:     pool,
		profiles: make(map[string]*netsim.Profile),
		seeds:    make(map[string]*netsim.Profile),
		plans:    make(map[string]*gridPlan),
	}
}

// defaultEngine backs the package-level experiment functions
// (SweepReconfigLatency, AnalyzeWindows, CostComparison), which keep
// their historical signatures and semantics on top of it.
var defaultEngine = NewEngine(0)

// DefaultEngine returns the process-wide engine used by the
// package-level experiment functions. Its cache is unbounded: it
// retains every distinct (Workload, Fabric) result — including full
// traces for AnalyzeWindows — for the life of the process. Long-running
// callers iterating over many distinct workloads should use a dedicated
// NewBoundedEngine, which evicts cold results automatically; ResetCache
// remains available to drop everything at a batch boundary and is safe
// to call concurrently with in-flight work (running simulations are
// kept, so singleflight deduplication holds across the reset).
func DefaultEngine() *Engine { return defaultEngine }

// Workers reports the pool size.
func (en *Engine) Workers() int { return en.pool.Workers() }

// StageStats is one pipeline stage's share of the cache telemetry.
type StageStats struct {
	Hits, Misses uint64
}

// CacheStats is the engine's memoization telemetry: Hits counts
// requests served from a memoized (or in-flight) simulation, Misses
// counts simulations actually run, Evictions counts results dropped by
// a bounded engine's LRU cap, and InFlight is the number of simulations
// currently running.
//
// Build, Provision, and Time break the aggregate Hits/Misses down by
// pipeline stage. SeedHits counts provisioned-stable convergence loops
// that started from a neighboring latency's converged profile;
// SeedMisses counts loops that had to start from the reactive profile.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	InFlight                int64

	Build, Provision, Time StageStats

	SeedHits, SeedMisses uint64
}

// CacheStats reports the telemetry accumulated since construction.
func (en *Engine) CacheStats() CacheStats {
	st := en.pool.Stats()
	stages := en.pool.StageStats()
	stage := func(name string) StageStats {
		s := stages[name]
		return StageStats{Hits: s.Hits, Misses: s.Misses}
	}
	return CacheStats{
		Hits:       st.Hits,
		Misses:     st.Misses,
		Evictions:  st.Evictions,
		InFlight:   st.InFlight,
		Build:      stage("build"),
		Provision:  stage("provision"),
		Time:       stage("time"),
		SeedHits:   en.seedHits.Load(),
		SeedMisses: en.seedMisses.Load(),
	}
}

// SetStageObserver installs (or, with nil, removes) a hook receiving
// the wall-clock duration of every simulation actually computed
// (cache misses only), labeled with its pipeline stage ("build",
// "provision", "time"; "" for unstaged keys). The daemon uses it to
// feed per-stage compute-latency histograms. The hook runs on the
// computation goroutine with no engine lock held; it must be cheap and
// non-blocking.
func (en *Engine) SetStageObserver(fn func(stage string, seconds float64)) {
	en.pool.SetObserver(fn)
}

// ResetCache drops all memoized simulation results (telemetry counters
// keep accumulating). In-flight simulations survive: their callers
// still get results, and concurrent requests for an in-flight key keep
// joining the running computation instead of duplicating it.
func (en *Engine) ResetCache() {
	en.pool.ResetCache()
	en.profMu.Lock()
	en.profiles = make(map[string]*netsim.Profile)
	en.seeds = make(map[string]*netsim.Profile)
	en.profMu.Unlock()
	en.planMu.Lock()
	en.plans = make(map[string]*gridPlan)
	en.planCells = 0
	en.planMu.Unlock()
}

// SimulateCtx is the memoized form of the package-level Simulate: the
// result of each distinct (Workload, Fabric) pair is computed once per
// engine and shared. Treat the returned Result as read-only. It runs
// under the engine cache's detached-singleflight semantics: a
// cancelled caller returns ctx.Err() promptly, but a simulation other
// callers have joined keeps running for them, and its result still
// lands in the cache. The simulation itself becomes cancellable only
// once its last waiter departs.
//
// This is the pipeline's Time stage: the compiled Program comes from
// the Build stage's memo (shared across every fabric/latency variant of
// the workload), and only the timed execution runs here.
func (en *Engine) SimulateCtx(ctx context.Context, w Workload, f Fabric) (*Result, error) {
	k := keysOf(w)
	return en.simulate(ctx, k.time(f), w, f)
}

// simulate is SimulateCtx under the Time key the caller derived for
// (w, f).
func (en *Engine) simulate(ctx context.Context, key string, w Workload, f Fabric) (*Result, error) {
	return exp.CachedCostCtx(ctx, en.pool, key, costSim, func(cctx context.Context) (*Result, error) {
		mode, err := fabricRealization(f)
		if err != nil {
			return nil, err
		}
		prog, err := en.programCtx(cctx, w)
		if err != nil {
			return nil, err
		}
		res, _, err := runProgram(prog, mode, f, false)
		return res, err
	})
}

// programCtx is the Build stage: Workload → compiled immutable
// *workload.Program, memoized per canonical workload key. Every Time-
// and Provision-stage run of the workload, on any fabric, shares the
// one cached Program.
func (en *Engine) programCtx(ctx context.Context, w Workload) (*workload.Program, error) {
	k := keysOf(w)
	return exp.CachedCostCtx(ctx, en.pool, k.build(), costProgram, func(context.Context) (*workload.Program, error) {
		return w.build()
	})
}

// provisionedStableCtx is the memoized provisioned-stable run — the
// pipeline's Provision stage. The memo key carries the latency, but the
// stage reuses everything latency-independent from below it: the Build
// stage's Program, the Time stage's reactive run at this latency (the
// same entry a Photonic grid cell uses), and — across latencies — the
// latency-free seed cache of converged profiles.
//
// Convergence seeding contract: a converged profile stored by one
// latency may seed another latency's convergence loop only when it is
// content-equal to that loop's own starting profile (the reactive
// profile). Equal starting content means the pass trajectory is
// byte-identical to the unseeded one, so seeding can only ever share
// memoized speculation work, never change a result. When the seed
// doesn't match, the loop falls back to full passes from the reactive
// profile.
func (en *Engine) provisionedStableCtx(ctx context.Context, w Workload, latencyMS float64) (*Result, error) {
	k := keysOf(w)
	return en.provision(ctx, k.provision(latencyMS), w, latencyMS)
}

// provision is provisionedStableCtx under the Provision key the caller
// derived for (w, latencyMS).
func (en *Engine) provision(ctx context.Context, key string, w Workload, latencyMS float64) (*Result, error) {
	return exp.CachedCostCtx(ctx, en.pool, key, costSim, func(cctx context.Context) (*Result, error) {
		return en.provisionedStableStaged(cctx, w, latencyMS)
	})
}

func (en *Engine) provisionedStableStaged(ctx context.Context, w Workload, latencyMS float64) (*Result, error) {
	prog, err := en.programCtx(ctx, w)
	if err != nil {
		return nil, err
	}
	// Profiling pass (reactive) — also the fallback schedule. Fetched
	// through the Time stage, so a grid's Photonic cell at the same
	// latency and this stage share one simulation.
	k := keysOf(w)
	f := Fabric{Kind: PhotonicRail, ReconfigLatencyMS: latencyMS}
	reactive, err := en.simulate(ctx, k.time(f), w, f)
	if err != nil {
		return nil, err
	}
	wkey := k.seed()
	best := reactive.inner
	profile := en.internProfile(wkey, best.Profile)
	if seed := en.lookupSeed(wkey); seed != nil && seed.Equal(profile) {
		en.seedHits.Add(1)
		// Same content as the reactive profile, so the trajectory is
		// unchanged; adopting the seed object shares its memoized
		// speculation plans.
		profile = seed
	} else {
		en.seedMisses.Add(1)
	}
	latency := units.FromMilliseconds(latencyMS)
	converged := false
	for pass := 0; pass < 3; pass++ {
		res, err := netsim.Run(prog, netsim.Options{
			Mode:            netsim.Photonic,
			ReconfigLatency: latency,
			Provision:       true,
			Profile:         profile,
		})
		if err != nil {
			return nil, err
		}
		if res.Total < best.Total {
			best = res
		}
		next := en.internProfile(wkey, res.Profile)
		if next.Equal(profile) {
			converged = true
			break
		}
		profile = next
	}
	if converged {
		en.storeSeed(wkey, profile)
	}
	return wrapResult(best), nil
}

// internProfile canonicalizes a profile by content within one
// workload's namespace: the first profile seen with a given fingerprint
// becomes the shared object all content-equal later ones resolve to, so
// its memoized speculation plans are computed once. Pure optimization —
// profiles are immutable in content and the memo is latency-free.
func (en *Engine) internProfile(wkey string, p *netsim.Profile) *netsim.Profile {
	if p == nil {
		return nil
	}
	key := wkey + "|" + p.Fingerprint()
	en.profMu.Lock()
	defer en.profMu.Unlock()
	if c, ok := en.profiles[key]; ok {
		return c
	}
	if len(en.profiles) >= maxInternedProfiles {
		en.profiles = make(map[string]*netsim.Profile)
	}
	en.profiles[key] = p
	return p
}

func (en *Engine) lookupSeed(wkey string) *netsim.Profile {
	en.profMu.Lock()
	defer en.profMu.Unlock()
	return en.seeds[wkey]
}

func (en *Engine) storeSeed(wkey string, p *netsim.Profile) {
	en.profMu.Lock()
	defer en.profMu.Unlock()
	if len(en.seeds) >= maxInternedProfiles {
		en.seeds = make(map[string]*netsim.Profile)
	}
	en.seeds[wkey] = p
}

// simulateTracedCtx is the memoized trace-recording electrical-baseline
// run that the window analysis consumes. Traced results carry the full
// per-op trace, so they weigh costTraced units in a bounded cache.
func (en *Engine) simulateTracedCtx(ctx context.Context, w Workload) (*netsim.Result, error) {
	k := keysOf(w)
	return exp.CachedCostCtx(ctx, en.pool, k.traced(), costTraced, func(cctx context.Context) (*netsim.Result, error) {
		prog, err := en.programCtx(cctx, w)
		if err != nil {
			return nil, err
		}
		_, inner, err := runProgram(prog, netsim.Electrical, Fabric{Kind: ElectricalRail}, true)
		return inner, err
	})
}
