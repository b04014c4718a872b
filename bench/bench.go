package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"photonrail"
	"photonrail/internal/scenario"
)

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// fig8 is the golden fig8-5d every fig8-5d response must match.
	fig8 fig8Golden
	// scratch holds the run's result stores; out receives trace.json.
	scratch, out string
	// setups is how many stacks are started to measure setup_s.
	setups int
	// cal times the host's speed. The tests leave it nil and so run at
	// the reference speed.
	cal *calibrator
}

// clients is the closed-loop client count and connection limit. One
// client leaves the second core to the stack's own goroutines and the
// GC: with two on a 2-core host the process oversubscribed its cores,
// and the warm workloads' p50 measured the scheduler as much as the
// stack.
const clients = 1

// runResult is everything one workload run measured.
type runResult struct {
	workload          workload
	cfg               config
	attempted, failed int
	messages          []string
	setup             []float64 // s
	setupSpeed        []float64 // the host's speed around each set-up
	rounds            []roundStats
	sampleSize        int // responses re-run through the library
	peakRSS           float64
	// Traced runs only.
	probe        probe
	layerSamples map[string][]float64
	spans        []span
}

// roundStats is one measured round.
type roundStats struct {
	traced   bool
	speed    float64 // the host's speed around the round (see calibrate.go)
	wall     float64 // s
	requests int
	ok       int
	cells    int
	lat      []float64 // ms: every request, or the interactive tenant's
	bulkLat  []float64 // ms: the bulk tenant's submit-to-result times
	late     []float64 // ms: open-loop send lateness
	// sloMiss counts interactive requests that failed or took over sloMS.
	sloMiss, interactive int
	use                  usage              // resource use during the round
	heapLive             float64            // MiB after the round, stack still up
	delta                map[string]float64 // stack counters accumulated in the round
	after                map[string]float64 // the stack's lifetime counters after it
	hash                 string             // rows_sha256
}

// run drives one workload through set-up, warm-up and the measured
// rounds, then verifies what the stack served.
func run(ctx context.Context, w workload, cfg config) (*runResult, error) {
	p := w.plan(cfg.seed, cfg.seconds)
	v := newVerifier(cfg.fig8)
	tr := newTracer()
	res := &runResult{workload: w, cfg: cfg, layerSamples: make(map[string][]float64)}
	count := func(outs []outcome) {
		for _, o := range outs {
			res.attempted++
			if !o.ok {
				res.failed++
			}
		}
	}
	storeDir := func() (string, error) {
		if !w.tenants {
			return "", nil
		}
		return os.MkdirTemp(cfg.scratch, "store-")
	}

	// Set-up: start a stack and serve its first, cold fig8-5d through
	// the gateway; the median over cfg.setups stacks is setup_s. The
	// host's speed is measured between set-ups and between rounds,
	// outside the timed and CPU-counted intervals, and each is scaled by
	// the mean of the two measurements around it.
	fig8 := scenario.SpecOf(scenario.Fig8Grid5D())
	var st *stack // the stack in use, closed on every path
	closeStack := func() {
		if st != nil {
			st.close()
			st = nil
			runtime.GC() // the next stack starts from a clean heap
		}
	}
	defer closeStack()
	speed := cfg.cal.speed() // at the last calibration
	for k := 0; k < cfg.setups; k++ {
		dir, err := storeDir()
		if err != nil {
			return nil, err
		}
		closeStack()
		t0 := time.Now()
		if st, err = startStack(w.fleet, dir, tr); err != nil {
			return nil, err
		}
		first := newRequest(fmt.Sprintf("fig8-5d-s%d-setup-%d", cfg.seed, k), "fig8-5d", "", fig8, kindFig8)
		count(closedLoop(ctx, st.url, []request{first}, 1, v, tr))
		res.setup = append(res.setup, time.Since(t0).Seconds())
		before := speed
		speed = cfg.cal.speed()
		res.setupSpeed = append(res.setupSpeed, (before+speed)/2)
	}

	runStore, err := storeDir()
	if err != nil {
		return nil, err
	}
	sample := sampleOf(w, p, cfg.seed)
	v.keepBodies(sample)
	if w.tenants {
		v.keepBodies(p.warmup)
	}
	// The warm workloads keep the last set-up stack; the others start a
	// stack for the warm-up and for every round.
	for r := -1; r < len(p.rounds); r++ {
		if w.fresh {
			closeStack()
			if st, err = startStack(w.fleet, runStore, tr); err != nil {
				return nil, err
			}
		}
		if r < 0 {
			count(closedLoop(ctx, st.url, p.warmup, clients, v, tr))
			speed = cfg.cal.speed()
			continue
		}
		rs := roundStats{traced: cfg.trace && r%2 == 1, speed: speed}
		before := st.counters()
		u0 := readUsage()
		tr.setEnabled(rs.traced)
		t0 := time.Now()
		var outs []outcome
		if w.tenants {
			outs = tenantRound(ctx, st.url, p.rounds[r], p.bulk[r], v, tr)
		} else {
			outs = closedLoop(ctx, st.url, p.rounds[r], clients, v, tr)
		}
		rs.wall = time.Since(t0).Seconds()
		tr.setEnabled(false)
		u1 := readUsage()
		speed = cfg.cal.speed()
		rs.speed = (rs.speed + speed) / 2
		if rs.traced {
			spans := tr.drain()
			decompose(spans, res.layerSamples)
			res.spans = append(res.spans, spans...)
		}
		if cfg.trace {
			runtime.GC()
			rs.heapLive = heapLiveMB()
		}
		rs.after = st.counters()
		rs.delta = make(map[string]float64, len(rs.after))
		for k, a := range rs.after {
			rs.delta[k] = a - before[k]
		}
		rs.use = usage{
			cpuMS: u1.cpuMS - u0.cpuMS, allocs: u1.allocs - u0.allocs, allocBytes: u1.allocBytes - u0.allocBytes,
			gcCPU: u1.gcCPU - u0.gcCPU,
		}
		summarize(&rs, outs)
		count(outs)
		sum := roundHash(outs)
		rs.hash = hex.EncodeToString(sum[:])
		res.rounds = append(res.rounds, rs)
	}
	closeStack()
	res.peakRSS = peakRSSMB()

	// Verification after the timed phase. Rounds that send the same
	// requests (every cold-sweep round) must serve the same bytes.
	first := make(map[string]string)
	for r, rs := range res.rounds {
		ids := roundIDs(p.rounds[r])
		if h, ok := first[ids]; ok && h != rs.hash {
			v.failf("round %d served different bytes than an identical earlier round (rows_sha256 %s vs %s)", r, rs.hash, h)
		}
		first[ids] = rs.hash
	}
	for _, rs := range res.rounds {
		if rs.delta["railfleet.failovers"] != 0 {
			v.failf("railfleet failed over %v times with no backend fault injected", rs.delta["railfleet.failovers"])
		}
	}
	libResults, runMS, err := v.rerun(ctx, sample)
	if err != nil {
		return nil, err
	}
	res.sampleSize = len(sample)
	if cfg.trace {
		if err := res.measureProbes(ctx, libResults, runMS); err != nil {
			return nil, err
		}
	}
	res.failed += v.failures
	res.messages = v.messages
	return res, nil
}

func roundIDs(reqs []request) string {
	ids := make([]string, len(reqs))
	for i, r := range reqs {
		ids[i] = r.id
	}
	return strings.Join(ids, "\x00")
}

// sampleOf picks the seeded sample of grid requests whose responses are
// re-run through a fresh library engine after the timed phase.
func sampleOf(w workload, p plan, seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pick := func(from []request, n int) []request {
		var out []request
		for _, i := range rng.Perm(len(from)) {
			if len(out) == n {
				break
			}
			if from[i].kind == kindGrid {
				out = append(out, from[i])
			}
		}
		return out
	}
	switch {
	case w.tenants:
		return append(pick(p.bulk[rng.Intn(len(p.bulk))], 2), pick(p.rounds[rng.Intn(len(p.rounds))], 2)...)
	case p.rounds[0][0].kind == kindGrid:
		return pick(p.rounds[0], 4)
	}
	return nil
}

// measureProbes times the layers' public functions on the workload's
// own results: warm fig8-5d runs for the warm workloads, the library
// re-runs (cold) for the others.
func (res *runResult) measureProbes(ctx context.Context, lib []*photonrail.ExperimentResult, runMS []float64) error {
	var target *photonrail.ExperimentResult
	if len(lib) == 0 {
		en := photonrail.NewBoundedEngine(0, 4096)
		var err error
		if target, err = runFig8(ctx, en); err != nil {
			return err
		}
		for i := 0; i < probeReps; i++ {
			if err := timeIt(&res.probe.run, func() error {
				_, err := runFig8(ctx, en)
				return err
			}); err != nil {
				return err
			}
		}
	} else {
		res.probe.run = runMS
		target = lib[0]
	}
	dir := ""
	if res.workload.tenants {
		var err error
		if dir, err = os.MkdirTemp(res.cfg.scratch, "probe-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	return res.probe.time(target, dir)
}

// summarize folds a round's outcomes into its stats.
func summarize(rs *roundStats, outs []outcome) {
	for _, o := range outs {
		rs.requests++
		if o.ok {
			rs.ok++
			rs.cells += o.cells
		}
		if o.bulk {
			if o.ok {
				rs.bulkLat = append(rs.bulkLat, o.lat)
			}
			continue
		}
		rs.interactive++
		if o.ok {
			rs.lat = append(rs.lat, o.lat)
		}
		rs.late = append(rs.late, o.late)
		if !o.ok || o.lat > sloMS {
			rs.sloMiss++
		}
	}
}
