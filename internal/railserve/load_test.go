package railserve

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// loadMix is the request shapes a concurrent load draws from, by name:
// a 1-cell, a 4-cell and a 9-cell grid, so a mixed stream exercises
// near-instant and multi-cell requests alike.
var loadMix = []struct {
	name string
	grid scenario.Grid
}{
	{"small", scenario.Grid{LatenciesMS: []float64{5}, Iterations: 1}},
	{"medium", scenario.Grid{LatenciesMS: []float64{5, 20}, Iterations: 1,
		Fabrics: []scenario.FabricKind{scenario.Electrical, scenario.Photonic}}},
	{"large", scenario.Grid{LatenciesMS: []float64{1, 5, 20}, Iterations: 1,
		Fabrics: []scenario.FabricKind{scenario.Electrical, scenario.Photonic, scenario.PhotonicStatic}}},
}

// loadSpecs draws n grid requests from loadMix with a PRNG seeded by
// seed. Each gets a unique name, so no two coalesce through
// request-level singleflight: the daemon executes every one (cells
// still hit its memo cache).
func loadSpecs(seed int64, n int) []scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]scenario.Spec, n)
	for i := range specs {
		w := loadMix[rng.Intn(len(loadMix))]
		g := w.grid
		g.Name = fmt.Sprintf("bench-%s#%d", w.name, i)
		specs[i] = scenario.SpecOf(g)
	}
	return specs
}

// runLoad sends specs as grid experiments to the daemon at addr over
// `clients` concurrent connections, and fails tb for every request
// that errors.
func runLoad(tb testing.TB, addr string, clients int, specs []scenario.Spec) {
	tb.Helper()
	conns := make([]*Client, clients)
	for i := range conns {
		c, err := Dial(addr)
		if err != nil {
			tb.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	work := make(chan int)
	errs := make(chan error, len(specs))
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if _, err := c.RunExperiment(context.Background(), gridReq(specs[i]), nil); err != nil {
					errs <- fmt.Errorf("request %d: %w", i, err)
				}
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		tb.Error(err)
	}
}

// TestScrapeCountsConcurrentRequests cross-checks the request
// histogram under concurrency: 8 clients issue 24 unique grids, and
// the scraped raild_request_duration_seconds_count, summed over
// experiment labels, must equal 24 — every admitted request sampled
// exactly once, none lost, none double-counted.
func TestScrapeCountsConcurrentRequests(t *testing.T) {
	s := newTestServer(t, 2, 0)
	hs := httptest.NewServer(s.Telemetry().Handler())
	t.Cleanup(hs.Close)

	runLoad(t, s.Addr(), 8, loadSpecs(1, 24))

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape returned %s", resp.Status)
	}
	samples, err := telemetry.ParseSamples(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var n float64
	for name, v := range samples {
		if series, _, _ := strings.Cut(name, "{"); series == "raild_request_duration_seconds_count" {
			n += v
		}
	}
	if n != 24 {
		t.Errorf("scraped request-duration histogram has %v samples, 24 requests were issued", n)
	}
}

// BenchmarkRailbenchSmoke is the request path's point on the perf
// trajectory: 4 clients send 8 unique grids, drawn with seed 1 from
// loadMix, to a fresh in-process daemon. It keeps the name of the load
// generator it replaces because BENCH_8.json gates that name; under
// another one, scripts/bench_diff.sh would report the baseline gone.
func BenchmarkRailbenchSmoke(b *testing.B) {
	specs := loadSpecs(1, 8)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := NewServer(Config{Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		runLoad(b, s.Addr(), 4, specs)
		b.StopTimer()
		_ = s.Close()
		s.Drain()
		b.StartTimer()
	}
}

// warmSink keeps BenchmarkWarmGridRequest's result live.
var warmSink string

// BenchmarkWarmGridRequest times one warm fig8-5d request as the
// gateway sends it: a JSON grid experiment with a unique name, so no
// two requests coalesce, through an in-process daemon and Client, and
// its JSON rendering. Every cell hits the daemon's memo (the warm-up
// fills it, outside the timer), so the time and allocations measure
// the request path: admission, progress, framing and JSON.
func BenchmarkWarmGridRequest(b *testing.B) {
	s, err := NewServer(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close(); s.Drain() }()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	request := func(i int) {
		spec.Name = fmt.Sprintf("warm-%d", i)
		run, err := c.RunExperiment(ctx, gridReq(spec), nil)
		if err != nil {
			b.Fatal(err)
		}
		if warmSink, err = run.Render("json"); err != nil {
			b.Fatal(err)
		}
	}
	request(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request(i)
	}
}
