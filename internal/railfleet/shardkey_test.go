package railfleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"photonrail/internal/scenario"
	"photonrail/internal/workload"
)

// fmtWorkloadKey is WorkloadKey spelled through fmt, the form shard
// assignments were first computed from.
func fmtWorkloadKey(c scenario.Cell) string {
	return fmt.Sprintf("%s|%s|%s|%s|j%g|e%v|%d|%d|%d",
		c.Model.Name, c.GPU.Name, c.Par, c.Schedule, c.JitterFrac, c.EagerRS,
		c.Microbatches, c.MicrobatchSize, c.Iterations)
}

// fmtScore is weightedScore with its hash input written through fmt.
func fmtScore(key string, t Target) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%s", key, t.ID)
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	u := (float64(s>>11) + 0.5) / (1 << 53)
	w := t.Weight
	if w < 1 {
		w = 1
	}
	return -float64(w) / math.Log(u)
}

// TestWorkloadKeyMatchesFmtSpelling pins the shard key's bytes, and
// the score hashed from them, to their fmt spelling: over fig8-5d's
// cells and seeded perturbations of them (jitters that print in
// exponent form or with many digits, both EagerRS values, both
// schedules, negative and extreme ints), so no shard moves.
func TestWorkloadKeyMatchesFmtSpelling(t *testing.T) {
	cells := scenario.Fig8Grid5D().Expand()
	rng := rand.New(rand.NewSource(21))
	jitters := []float64{0, 1.0 / 3, 1e-7, 0.05, 2.5e-12, 0.999999999, math.SmallestNonzeroFloat64}
	ints := []int{0, 1, -1, 12, -7, 1 << 40, math.MaxInt64, math.MinInt64}
	pick := func() int { return ints[rng.Intn(len(ints))] }
	base := cells
	for i := 0; i < 400; i++ {
		c := base[rng.Intn(len(base))]
		c.JitterFrac = jitters[rng.Intn(len(jitters))]
		c.EagerRS = rng.Intn(2) == 1
		c.Schedule = []workload.Schedule{workload.OneFOneB, workload.GPipe}[rng.Intn(2)]
		c.Par = scenario.Parallelism{TP: pick(), DP: pick(), PP: pick(), CP: pick(), EP: pick()}
		c.Microbatches, c.MicrobatchSize, c.Iterations = pick(), pick(), pick()
		if rng.Intn(4) == 0 {
			c.Model.Name += "|#é"
		}
		cells = append(cells, c)
	}
	targets := []Target{{ID: StaticID(0), Weight: 1}, {ID: StaticID(1), Weight: 3}, {ID: "m-a1b2", Weight: 0}}
	for _, c := range cells {
		key := WorkloadKey(c)
		if want := fmtWorkloadKey(c); key != want {
			t.Fatalf("WorkloadKey = %q, want %q", key, want)
		}
		for _, tg := range targets {
			if got, want := weightedScore(key, tg), fmtScore(key, tg); got != want {
				t.Fatalf("weightedScore(%q, %+v) = %v, want %v", key, tg, got, want)
			}
		}
	}
}
