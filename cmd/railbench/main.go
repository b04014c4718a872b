// Command railbench is a synthetic load generator for raild and
// railfleet: it drives N concurrent clients issuing a deterministic
// mixed stream of grid experiments (exp_req{name:"grid"}) of varying
// sizes against one daemon, then reports client-side latency quantiles
// (p50/p99) and throughput.
// With -metrics it also scrapes the daemon's /metrics endpoint and
// cross-checks that the daemon's request-duration histogram counted
// exactly the requests railbench issued — the end-to-end proof that
// the observability layer samples every admitted request exactly once.
//
// Usage:
//
//	railbench -addr 127.0.0.1:9090                        # 4 clients, 32 requests
//	railbench -addr :9090 -clients 8 -requests 128
//	railbench -addr :9090 -mix small,large -seed 7        # constrain & reseed the mix
//	railbench -addr :9090 -metrics http://127.0.0.1:9190  # scrape cross-check
//	railbench -addr :9090 -json                           # machine-readable report
//
// Each request gets a unique grid name, so requests never coalesce via
// request-level singleflight: the daemon executes every one (cells
// still hit its warm memo cache, so railbench measures request-path
// overhead, not simulation time).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"photonrail/internal/metrics"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "railbench: %v\n", err)
		os.Exit(1)
	}
}

// workload is one named request shape in the mix.
type workload struct {
	name string
	grid scenario.Grid
}

// mixCatalog is the full set of request shapes -mix selects from.
// Sizes are chosen so a mixed run exercises both near-instant and
// multi-cell requests without making a smoke run slow.
func mixCatalog() []workload {
	return []workload{
		{"small", scenario.Grid{LatenciesMS: []float64{5}, Iterations: 1}},                                                                                                         // 1 cell
		{"medium", scenario.Grid{LatenciesMS: []float64{5, 20}, Iterations: 1, Fabrics: []scenario.FabricKind{scenario.Electrical, scenario.Photonic}}},                            // 4 cells
		{"large", scenario.Grid{LatenciesMS: []float64{1, 5, 20}, Iterations: 1, Fabrics: []scenario.FabricKind{scenario.Electrical, scenario.Photonic, scenario.PhotonicStatic}}}, // 9 cells
	}
}

// report is railbench's result document (-json emits it verbatim).
type report struct {
	Clients        int     `json:"clients"`
	Requests       int     `json:"requests"`
	Errors         int     `json:"errors"`
	Cells          int     `json:"cells"`
	DurationSec    float64 `json:"duration_seconds"`
	ThroughputRPS  float64 `json:"throughput_rps"`
	P50Sec         float64 `json:"p50_seconds"`
	P99Sec         float64 `json:"p99_seconds"`
	ScrapedSamples float64 `json:"scraped_samples,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("railbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "daemon address to load (required)")
		clients  = fs.Int("clients", 4, "concurrent client connections")
		requests = fs.Int("requests", 32, "total requests across all clients")
		seed     = fs.Int64("seed", 1, "PRNG seed for the request mix")
		mix      = fs.String("mix", "small,medium,large", "comma-separated workload names to draw from")
		metricsU = fs.String("metrics", "", "daemon /metrics base URL: cross-check scraped sample count (optional)")
		asJSON   = fs.Bool("json", false, "emit the report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; -h is not a failure
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q (railbench takes flags only)", fs.Args())
	}
	if *addr == "" {
		return fmt.Errorf("no daemon: pass -addr host:port")
	}
	if *clients <= 0 || *requests <= 0 {
		return fmt.Errorf("-clients and -requests must be > 0, got %d and %d", *clients, *requests)
	}
	catalog := mixCatalog()
	var pool []workload
	for _, name := range strings.Split(*mix, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, w := range catalog {
			if w.name == name {
				pool = append(pool, w)
				found = true
			}
		}
		if !found {
			known := make([]string, len(catalog))
			for i, w := range catalog {
				known[i] = w.name
			}
			return fmt.Errorf("unknown workload %q in -mix (have %s)", name, strings.Join(known, ", "))
		}
	}
	if len(pool) == 0 {
		return fmt.Errorf("-mix selects no workloads")
	}

	// The request stream is fully determined by (-seed, -mix, -requests)
	// before any client dials, so runs are reproducible whatever the
	// scheduling: each request is a unique grid (no singleflight
	// coalescing) drawn from the pool.
	rng := rand.New(rand.NewSource(*seed))
	specs := make([]scenario.Spec, *requests)
	totalCells := 0
	for i := range specs {
		w := pool[rng.Intn(len(pool))]
		g := w.grid
		g.Name = fmt.Sprintf("bench-%s#%d", w.name, i)
		specs[i] = scenario.SpecOf(g)
		resolved, err := specs[i].Resolve()
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		totalCells += len(resolved.Expand())
	}

	conns := make([]*railserve.Client, *clients)
	for i := range conns {
		c, err := railserve.Dial(*addr)
		if err != nil {
			return fmt.Errorf("dial %s: %w", *addr, err)
		}
		defer c.Close()
		conns[i] = c
	}

	var (
		mu        sync.Mutex
		latencies []float64
		errCount  int
	)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				t0 := time.Now()
				_, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "grid", Grid: &specs[i]}, nil)
				d := time.Since(t0).Seconds()
				mu.Lock()
				if err != nil {
					errCount++
					fmt.Fprintf(stderr, "railbench: request %d: %v\n", i, err)
				} else {
					latencies = append(latencies, d)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range specs {
		work <- i
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := report{
		Clients:     *clients,
		Requests:    *requests,
		Errors:      errCount,
		Cells:       totalCells,
		DurationSec: elapsed,
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(*requests-errCount) / elapsed
	}
	if len(latencies) > 0 {
		cdf := metrics.NewCDF(latencies)
		rep.P50Sec = cdf.Quantile(0.50)
		rep.P99Sec = cdf.Quantile(0.99)
	}

	if *metricsU != "" {
		n, err := scrapedRequestSamples(*metricsU)
		if err != nil {
			return fmt.Errorf("scrape cross-check: %w", err)
		}
		rep.ScrapedSamples = n
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "railbench: %d requests (%d cells) over %d clients in %.3fs: %.1f req/s, %d errors\n",
			rep.Requests, rep.Cells, rep.Clients, rep.DurationSec, rep.ThroughputRPS, rep.Errors)
		fmt.Fprintf(stdout, "latency: p50 %.2fms  p99 %.2fms\n", rep.P50Sec*1e3, rep.P99Sec*1e3)
		if *metricsU != "" {
			fmt.Fprintf(stdout, "scrape: %.0f histogram samples\n", rep.ScrapedSamples)
		}
	}
	if errCount > 0 {
		return fmt.Errorf("%d of %d requests failed", errCount, *requests)
	}
	if *metricsU != "" && rep.ScrapedSamples != float64(*requests) {
		return fmt.Errorf("scraped request-duration histogram has %.0f samples, railbench issued %d — the daemon lost or double-counted requests",
			rep.ScrapedSamples, *requests)
	}
	return nil
}

// scrapedRequestSamples GETs the daemon's /metrics endpoint and sums
// the *_request_duration_seconds_count series across experiment labels
// — the daemon-side count of admitted requests.
func scrapedRequestSamples(base string) (float64, error) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("scrape returned %s", resp.Status)
	}
	samples, err := telemetry.ParseSamples(resp.Body)
	if err != nil {
		return 0, err
	}
	var n float64
	for name, v := range samples {
		series := name
		if i := strings.IndexByte(series, '{'); i >= 0 {
			series = series[:i]
		}
		if strings.HasSuffix(series, "_request_duration_seconds_count") {
			n += v
		}
	}
	return n, nil
}
