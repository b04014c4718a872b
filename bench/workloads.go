package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"photonrail/internal/scenario"
)

// minRounds is the fewest measured rounds a run has. Throughput and CPU
// are medians over rounds; latency quantiles pool every round's samples.
const minRounds = 9

// workload is one traffic mix the benchmark drives through the stack.
type workload struct {
	name string
	why  string
	// fleet puts railfleet and two raild backends behind the gateway.
	fleet bool
	// tenants turns the result store on and drives the bulk and
	// interactive tenants.
	tenants bool
	// fresh restarts the whole stack before every round.
	fresh bool
	// plan generates the run's requests: a pure function of the seed and
	// the measured time, which sizes the rounds.
	plan func(seed int64, seconds float64) plan
}

// workloads lists the benchmark's traffic mixes; BENCHMARK.json names
// the same four.
var workloads = []workload{
	{
		name: "fig8-warm",
		why:  "gateway to raild with every cell memoised: the time goes to the request path, not the engine",
		plan: fig8Plan(fig8PerSec),
	},
	{
		name:  "cold-sweep",
		why:   "distinct 7-10-cell grids on a fresh stack each round: every cell misses, so the engine stages dominate",
		fresh: true,
		plan:  coldPlan,
	},
	{
		name:  "fleet-fanout",
		why:   "the fig8-warm mix through railfleet and two backends: the difference is sharding, fan-out and merge",
		fleet: true,
		plan:  fig8Plan(fleetPerSec),
	},
	{
		name:    "tenant-mix",
		why:     "bulk async grids fill the slots while an open-loop interactive tenant reads and writes the result store",
		tenants: true,
		fresh:   true,
		plan:    tenantPlan,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Round sizing. Rates are nominal for the reference host (2 cores) and
// only size the rounds so that a run measures about -seconds; they are
// constants, not measurements, so a run's requests stay a pure function
// of its seed and -seconds. The warm workloads run minRounds rounds.
// The fresh-stack workloads run more, shorter rounds instead: raild's
// memo keeps several MB per distinct workload and evicts nothing below
// its 4096-unit bound, so a round's size bounds the process's memory.
const (
	fig8PerSec        = 330.0 // fig8-warm requests per second
	fleetPerSec       = 220.0 // fleet-fanout requests per second
	coldGridsPerSec   = 32.0  // cold-sweep grids per second
	bulkGridsPerSec   = 160.0 // tenant-mix bulk grids per second
	bulkPerRound      = 160   // tenant-mix bulk grids per round
	scheduleSec       = 0.5   // tenant-mix interactive schedule per round, about half the bulk work
	interactivePerSec = 120.0 // tenant-mix open-loop arrival rate
	readShare         = 0.75  // share of interactive requests the store serves
	storedReads       = 8     // distinct results the interactive tenant re-reads
	tenantBulk        = "bulk"
	tenantInteractive = "interactive"
)

// kind says how a response is verified.
type kind int

const (
	// kindFig8 is fig8-5d under a unique name: compared byte for byte
	// with the library rendering and the golden corpus.
	kindFig8 kind = iota
	// kindGrid is a grid run once: hashed into rows_sha256, and a seeded
	// sample is re-run through a fresh library engine.
	kindGrid
	// kindRead repeats a stored request: compared byte for byte with
	// the response that stored it.
	kindRead
)

// request is one generated POST /v1/experiments/{exp}.
type request struct {
	// id is unique within a run; every span the request causes carries
	// it. It equals grid except for repeated reads.
	id     string
	grid   string
	exp    string
	tenant string
	body   []byte
	spec   scenario.Spec
	cells  int
	kind   kind
	// at is the open-loop send time within the round (interactive only).
	at time.Duration
}

// plan is every request one run sends.
type plan struct {
	warmup []request
	// rounds holds each round's closed-loop requests, or on tenant-mix
	// the interactive open-loop schedule.
	rounds [][]request
	// bulk holds tenant-mix's bulk submissions per round.
	bulk [][]request
}

// atLeast rounds x to a whole number no smaller than lo.
func atLeast(lo int, x float64) int { return max(lo, int(math.Round(x))) }

// newRequest names the spec with the request's grid name and encodes
// the POST body.
func newRequest(id, exp, tenant string, spec scenario.Spec, k kind) request {
	spec.Name = id
	body, err := json.Marshal(struct {
		Grid scenario.Spec `json:"grid"`
	}{spec})
	if err != nil {
		panic(err) // a scenario.Spec always encodes
	}
	g, err := spec.Resolve()
	if err != nil {
		panic(fmt.Sprintf("generated spec %q does not resolve: %v", id, err))
	}
	return request{id: id, grid: id, exp: exp, tenant: tenant, body: body, spec: spec, cells: g.CellCount(), kind: k}
}

// fig8Plan sends fig8-5d under a unique grid name per request, so
// raild's singleflight never coalesces two of them while every cell
// still hits the memo. The seed only names the requests.
func fig8Plan(perSec float64) func(seed int64, seconds float64) plan {
	return func(seed int64, seconds float64) plan {
		base := scenario.SpecOf(scenario.Fig8Grid5D())
		mk := func(tag string, n int) []request {
			out := make([]request, n)
			for i := range out {
				out[i] = newRequest(fmt.Sprintf("fig8-5d-s%d-%s-%d", seed, tag, i), "fig8-5d", "", base, kindFig8)
			}
			return out
		}
		n := atLeast(2, perSec*seconds/minRounds)
		p := plan{warmup: mk("w", max(2, n/4))}
		for r := 0; r < minRounds; r++ {
			p.rounds = append(p.rounds, mk(fmt.Sprintf("r%d", r), n))
		}
		return p
	}
}

// coldPlan sends one seeded list of distinct grids — the deck, in
// seeded order — identical in every round (each round runs on a fresh
// stack). A unique jitter per grid gives every grid its own workload,
// so every cell misses Build, Provision and Time.
func coldPlan(seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed))
	j := newJitters(rng)
	shapes := dealt(rng, deck, min(len(deck), atLeast(2, coldGridsPerSec*seconds/minRounds)))
	list := make([]request, len(shapes))
	for i, sh := range shapes {
		list[i] = newRequest(fmt.Sprintf("cold-s%d-%d", seed, i), "grid", "", sh.spec(rng, j.next()), kindGrid)
	}
	p := plan{warmup: list[:min(len(list), 8)]}
	for r := atLeast(minRounds, coldGridsPerSec*seconds/float64(len(deck))); r > 0; r-- {
		p.rounds = append(p.rounds, list)
	}
	return p
}

// tenantPlan builds tenant-mix: the warm-up stores storedReads 1-cell
// results; each round then runs a Poisson interactive schedule in
// which readShare of the requests repeat a stored result and the rest
// are fresh 1-cell grids, beside the bulk tenant's list of small grids,
// sized to outlast the schedule so the interactive tenant always
// contends with bulk work. Fresh and bulk grids are distinct
// across rounds, because the store outlives the per-round stacks.
func tenantPlan(seed int64, seconds float64) plan {
	rng := rand.New(rand.NewSource(seed))
	j := newJitters(rng)
	var p plan
	for i := 0; i < storedReads; i++ {
		p.warmup = append(p.warmup, newRequest(fmt.Sprintf("stored-s%d-%d", seed, i), "grid", tenantInteractive,
			smallDeck[i%len(smallDeck)].oneCell(rng, j.next()), kindGrid))
	}
	n := atLeast(2, interactivePerSec*min(scheduleSec, seconds/minRounds))
	reads := min(n-1, int(math.Round(readShare*float64(n))))
	fresh := 0
	for r := 0; r < atLeast(minRounds, seconds*bulkGridsPerSec/bulkPerRound); r++ {
		isRead := make([]bool, n)
		for i := 0; i < reads; i++ {
			isRead[i] = true
		}
		rng.Shuffle(n, func(a, b int) { isRead[a], isRead[b] = isRead[b], isRead[a] })
		var at time.Duration
		inter := make([]request, n)
		for i := range inter {
			at += time.Duration(rng.ExpFloat64() / interactivePerSec * float64(time.Second))
			if isRead[i] {
				inter[i] = p.warmup[rng.Intn(storedReads)]
				inter[i].id = fmt.Sprintf("%s#r%d-%d", inter[i].grid, r, i)
				inter[i].kind = kindRead
			} else {
				sh := smallDeck[fresh%len(smallDeck)]
				fresh++
				inter[i] = newRequest(fmt.Sprintf("fresh-s%d-r%d-%d", seed, r, i), "grid", tenantInteractive, sh.oneCell(rng, j.next()), kindGrid)
			}
			inter[i].at = at
		}
		shapes := dealt(rng, smallDeck, min(bulkPerRound, atLeast(1, bulkGridsPerSec*seconds/minRounds)))
		bulk := make([]request, len(shapes))
		for i, sh := range shapes {
			bulk[i] = newRequest(fmt.Sprintf("bulk-s%d-r%d-%d", seed, r, i), "grid", tenantBulk, sh.spec(rng, j.next()), kindGrid)
		}
		p.rounds = append(p.rounds, inter)
		p.bulk = append(p.bulk, bulk)
	}
	return p
}

// jitters hands out distinct compute-jitter fractions: a distinct
// jitter is a distinct workload to the engine's memo.
type jitters struct {
	base float64
	n    int
}

func newJitters(rng *rand.Rand) *jitters { return &jitters{base: rng.Float64()} }

func (j *jitters) next() float64 {
	j.n++
	return 0.01 + 1e-4*(float64(j.n)+j.base)
}

// shape is what sets a cold grid's simulation cost: the model, the
// parallelism, the microbatch count, the swept latencies and whether
// the static partition is swept. Microbatch counts stay small and one
// iteration is simulated, to bound the memory the engine retains per
// grid.
type shape struct {
	model   string
	par     scenario.Parallelism
	mb      int
	latency []float64
	static  bool
}

type modelPar struct {
	model string
	par   scenario.Parallelism
}

var (
	par3D = scenario.Parallelism{TP: 4, DP: 2, PP: 2}
	par4D = scenario.Parallelism{TP: 4, DP: 1, CP: 2, PP: 2}
	par5D = scenario.Parallelism{TP: 4, DP: 1, EP: 2, PP: 2}
)

// shapesOf crosses model/parallelism pairs with and without the static
// partition, alternating three and four latencies between pairs: grids
// of 7 to 10 cells.
func shapesOf(pairs []modelPar, mb func(k int) int) []shape {
	var out []shape
	for _, c := range pairs {
		for _, static := range []bool{false, true} {
			k := len(out)
			lat := []float64{1, 10, 100}
			if k/2%2 == 1 {
				lat = []float64{1, 5, 20, 100}
			}
			out = append(out, shape{model: c.model, par: c.par, mb: mb(k), latency: lat, static: static})
		}
	}
	return out
}

// deck is cold-sweep's shapes: each model preset with the 3D and 4D
// parallelisms (and 5D where the model has experts) — fourteen grids.
// A round deals the deck once, in seeded order, so the work per round
// does not depend on the seed; the seed draws the order, the GPUs and
// the jitters.
var deck = shapesOf([]modelPar{
	{"Llama3-8B", par3D}, {"Llama3-8B", par4D},
	{"Mixtral-8x7B", par3D}, {"Mixtral-8x7B", par4D}, {"Mixtral-8x7B", par5D},
	{"Llama3-70B", par3D}, {"Llama3-70B", par4D},
}, func(k int) int { return 4 + 2*(k%3) })

// smallDeck is tenant-mix's shapes: 3D grids of two microbatches, whose
// engine jobs take well under a millisecond each. The bulk tenant keeps
// the slots and processors busy with them while an interactive request
// never waits behind a long simulation; cold-sweep measures the heavy
// grids.
var smallDeck = shapesOf([]modelPar{
	{"Llama3-8B", par3D}, {"Mixtral-8x7B", par3D}, {"Mixtral-8x7B", par3D}, {"Llama3-8B", par3D},
}, func(int) int { return 2 })

// dealt deals n shapes from freshly shuffled copies of d.
func dealt(rng *rand.Rand, d []shape, n int) []shape {
	var out []shape
	for len(out) < n {
		for _, i := range rng.Perm(len(d)) {
			out = append(out, d[i])
		}
	}
	return out[:n]
}

var gpus = []string{"A100", "H100", "H200"}

// spec draws a grid of the shape: a GPU and a jitter.
func (s shape) spec(rng *rand.Rand, jitter float64) scenario.Spec {
	fabrics := []string{"electrical", "photonic", "provisioned"}
	if s.static {
		fabrics = append(fabrics, "static")
	}
	return scenario.Spec{
		Models:       []string{s.model},
		GPUs:         []string{gpus[rng.Intn(len(gpus))]},
		Fabrics:      fabrics,
		LatenciesMS:  s.latency,
		Parallelisms: []scenario.Parallelism{s.par},
		JitterFracs:  []float64{jitter},
		Microbatches: s.mb,
		Iterations:   1,
	}
}

// oneCell draws a 1-cell grid of the shape's workload on the electrical
// fabric.
func (s shape) oneCell(rng *rand.Rand, jitter float64) scenario.Spec {
	g := s.spec(rng, jitter)
	g.Fabrics = []string{"electrical"}
	g.LatenciesMS = nil
	return g
}
