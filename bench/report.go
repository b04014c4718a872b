package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// endToEndNames and layerNames are the metrics BENCHMARK.json declares
// (end_to_end and per_layer); the result line carries exactly these.
var (
	endToEndNames = []string{"setup_s", "req_per_s", "cells_per_s", "p50_ms", "cpu_ms_per_req", "peak_rss_mb"}
	layerNames    = []string{
		"p99_ms",
		"http.transport_ms",
		"railgate.http_ms", "railgate.pre_runner_ms", "railgate.post_runner_ms",
		"railserve.rtt_ms", "railserve.serve_ms",
		"opusnet.encode_ms", "opusnet.decode_ms", "opusnet.frame_bytes", "opusnet.bytes_per_req",
		"report.text_ms", "report.csv_ms", "report.json_ms",
		"photonrail.run_ms", "photonrail.build_ms", "photonrail.provision_ms", "photonrail.time_ms",
		"photonrail.build_misses", "photonrail.provision_misses", "photonrail.time_misses",
		"exp.hit_ratio",
		"runtime.allocs_per_req", "runtime.alloc_bytes_per_req", "runtime.gc_cpu_frac", "runtime.heap_live_mb",
	}
)

// shouldMove is the layer -> end-to-end map: which end-to-end metric,
// on which workload, a change in the layer's metrics should move.
var shouldMove = []struct{ prefix, moves string }{
	{"http.", "every workload's p50_ms"},
	{"railgate.", "tenant-mix p99_ms/slo_miss_frac (queue wait); fig8-warm p50_ms"},
	{"resultstore.", "tenant-mix p50_ms/p99_ms"},
	{"opusnet.", "fig8-warm and fleet-fanout p50_ms/cpu_ms_per_req"},
	{"report.", "fig8-warm and fleet-fanout; no change on cold-sweep"},
	{"railserve.", "fig8-warm p50_ms/req_per_s"},
	{"railfleet.", "fleet-fanout only"},
	{"photonrail.", "cold-sweep cells_per_s/cpu_ms_per_req; no change on fig8-warm"},
	{"exp.", "cold-sweep cells_per_s/cpu_ms_per_req; no change on fig8-warm"},
	{"runtime.", "fig8-warm cpu_ms_per_req (allocs); cold-sweep peak_rss_mb (heap, GC)"},
}

func movesOf(name string) string {
	for _, m := range shouldMove {
		if strings.HasPrefix(name, m.prefix) {
			return m.moves
		}
	}
	return ""
}

func (res *runResult) roundsTraced(traced bool) []roundStats {
	var out []roundStats
	for _, rs := range res.rounds {
		if rs.traced == traced {
			out = append(out, rs)
		}
	}
	return out
}

// endToEnd computes the user-visible metrics over the rounds with the
// given tracing state: its timings at the reference host speed, or with
// asMeasured the timings as the clock read them. slo_miss_frac always
// holds requests to the limit as measured.
func (res *runResult) endToEnd(traced, asMeasured bool) []metric {
	at := func(speed float64) float64 {
		if asMeasured {
			return 1
		}
		return toReference(speed)
	}
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = k * x
		}
		return out
	}
	rs := res.roundsTraced(traced)
	var rate, cellRate, cpu, lat, late, bulk []float64
	slo, inter := 0, 0
	for _, r := range rs {
		k := at(r.speed)
		rate = append(rate, float64(r.ok)/r.wall/k)
		cellRate = append(cellRate, float64(r.cells)/r.wall/k)
		cpu = append(cpu, k*r.use.cpuMS/float64(max(r.ok, 1)))
		lat = append(lat, scaled(r.lat, k)...)
		late = append(late, scaled(r.late, k)...)
		bulk = append(bulk, scaled(r.bulkLat, k)...)
		slo += r.sloMiss
		inter += r.interactive
	}
	setup := make([]float64, len(res.setup))
	for i, s := range res.setup {
		setup[i] = at(res.setupSpeed[i]) * s
	}
	out := []metric{
		{Name: "setup_s", Unit: "s", Value: median(setup), N: len(setup)},
		{Name: "req_per_s", Unit: "1/s", Value: median(rate), N: len(rs)},
		{Name: "cells_per_s", Unit: "1/s", Value: median(cellRate), N: len(rs)},
		{Name: "p50_ms", Unit: "ms", Value: quantile(lat, 0.5), N: len(lat)},
		{Name: "p99_ms", Unit: "ms", Value: quantile(lat, 0.99), N: len(lat)},
		{Name: "cpu_ms_per_req", Unit: "ms", Value: median(cpu), N: len(rs)},
		{Name: "peak_rss_mb", Unit: "MiB", Value: res.peakRSS},
		{Name: "error_rate", Unit: "frac", Value: float64(res.failed) / float64(max(res.attempted, 1)), N: res.attempted},
	}
	if res.workload.tenants {
		out = append(out,
			metric{Name: "slo_miss_frac", Unit: "frac", Value: float64(slo) / float64(max(inter, 1)), N: inter},
			metric{Name: "late_p99_ms", Unit: "ms", Value: quantile(late, 0.99), N: len(late)},
			metric{Name: "bulk_p50_ms", Unit: "ms", Value: median(bulk), N: len(bulk)},
		)
	}
	return out
}

// layers computes the per-layer metrics: span decompositions and probes
// from a traced run, and counters from every round.
func (res *runResult) layers() []metric {
	var out []metric
	add := func(name, unit string, v float64, n int) {
		out = append(out, metric{Name: name, Unit: unit, Value: v, N: n})
	}
	for _, m := range res.endToEnd(false, true) {
		if m.Name == "p99_ms" {
			out = append(out, m)
		}
	}
	names := make([]string, 0, len(res.layerSamples))
	for name := range res.layerSamples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := res.layerSamples[name]
		add(name, "ms", median(s), len(s))
	}
	p := &res.probe
	add("photonrail.run_ms", "ms", median(p.run), len(p.run))
	add("report.text_ms", "ms", median(p.text), len(p.text))
	add("report.csv_ms", "ms", median(p.csv), len(p.csv))
	add("report.json_ms", "ms", median(p.json), len(p.json))
	add("opusnet.encode_ms", "ms", median(p.encode), len(p.encode))
	add("opusnet.decode_ms", "ms", median(p.decode), len(p.decode))
	add("opusnet.frame_bytes", "bytes", p.frameBytes, 0)
	if res.workload.tenants {
		add("resultstore.put_ms", "ms", median(p.put), len(p.put))
		add("resultstore.get_ms", "ms", median(p.get), len(p.get))
	}
	if s, ok := res.layerSamples["railserve.serve_ms"]; ok && !res.workload.fleet && !res.workload.tenants {
		self := median(s) - median(p.run) - median(p.text) - median(p.csv) - median(p.json)
		add("railserve.self_ms", "ms", self, len(s))
	}

	// Counters, as the median over rounds: accumulated during the round,
	// or over the stack's lifetime (the engine's stages and cache).
	perRound := func(name, unit string, f func(rs roundStats) float64) {
		var xs []float64
		for _, rs := range res.rounds {
			xs = append(xs, f(rs))
		}
		add(name, unit, median(xs), len(xs))
	}
	perRound("opusnet.bytes_per_req", "bytes", func(rs roundStats) float64 { return rs.delta["opusnet.bytes"] / float64(rs.requests) })
	perRound("opusnet.frames_per_req", "count", func(rs roundStats) float64 { return rs.delta["opusnet.frames"] / float64(rs.requests) })
	for _, name := range []string{"railserve.exps_executed", "railserve.exps_deduped", "railgate.rejected"} {
		perRound(name, "count", func(rs roundStats) float64 { return rs.delta[name] })
	}
	if res.workload.fleet {
		perRound("railfleet.cells_req_frames", "count", func(rs roundStats) float64 { return rs.delta["railfleet.cells_req_frames"] })
		perRound("railfleet.backend_bytes", "bytes", func(rs roundStats) float64 { return rs.delta["railfleet.backend_bytes"] })
		perRound("railfleet.failovers", "count", func(rs roundStats) float64 { return rs.delta["railfleet.failovers"] })
	}
	if res.workload.tenants {
		for _, name := range []string{"resultstore.hits", "resultstore.misses", "resultstore.puts", "resultstore.evictions"} {
			perRound(name, "count", func(rs roundStats) float64 { return rs.delta[name] })
		}
	}
	for _, name := range []string{"photonrail.build_misses", "photonrail.provision_misses", "photonrail.time_misses",
		"photonrail.seed_hits", "photonrail.seed_misses", "exp.evictions"} {
		perRound(name, "count", func(rs roundStats) float64 { return rs.after[name] })
	}
	for _, stage := range stages {
		perRound("photonrail."+stage+"_ms", "ms", func(rs roundStats) float64 {
			if rs.after["stage_n."+stage] == 0 {
				return 0 // the stage computed nothing
			}
			return 1000 * rs.after["stage_s."+stage] / rs.after["stage_n."+stage]
		})
	}
	perRound("exp.hit_ratio", "frac", func(rs roundStats) float64 {
		return rs.after["exp.hits"] / (rs.after["exp.hits"] + rs.after["exp.misses"])
	})

	var allocs, bytes, gc, heap []float64
	for _, rs := range res.roundsTraced(false) {
		allocs = append(allocs, rs.use.allocs/float64(rs.requests))
		bytes = append(bytes, rs.use.allocBytes/float64(rs.requests))
		gc = append(gc, 1000*rs.use.gcCPU/rs.use.cpuMS)
		heap = append(heap, rs.heapLive)
	}
	add("runtime.allocs_per_req", "count", median(allocs), len(allocs))
	add("runtime.alloc_bytes_per_req", "bytes", median(bytes), len(bytes))
	add("runtime.gc_cpu_frac", "frac", median(gc), len(gc))
	add("runtime.heap_live_mb", "MiB", median(heap), len(heap))
	return out
}

// blockingPath lists the self times along a synchronous request's
// blocking path and their sum next to the client-observed median.
func (res *runResult) blockingPath(layers []metric) []metric {
	get := func(name string) float64 {
		for _, m := range layers {
			if m.Name == name {
				return m.Value
			}
		}
		return math.NaN()
	}
	parts := []string{"http.transport_ms", "railgate.pre_runner_ms", "railgate.post_runner_ms", "opusnet.wire_ms"}
	if res.workload.fleet {
		parts = append(parts, "railfleet.self_ms", "railfleet.backend_wire_ms", "railfleet.backend_serve_ms")
	} else if res.workload.tenants {
		parts = append(parts, "railserve.serve_ms")
	} else {
		parts = append(parts, "railserve.self_ms", "photonrail.run_ms", "report.text_ms", "report.csv_ms", "report.json_ms")
	}
	var out []metric
	sum := 0.0
	for _, name := range parts {
		v := get(name)
		sum += v
		out = append(out, metric{Name: name, Unit: "ms", Value: v})
	}
	client := get("client_ms")
	return append(out,
		metric{Name: "sum_ms", Unit: "ms", Value: sum},
		metric{Name: "client_p50_ms", Unit: "ms", Value: client},
		metric{Name: "sum_over_client", Unit: "frac", Value: sum / client},
	)
}

// overhead is the traced rounds' end-to-end metrics minus the untraced
// rounds' of the same run, at the reference host speed.
func (res *runResult) overhead() map[string]float64 {
	on, off := res.endToEnd(true, false), res.endToEnd(false, false)
	out := make(map[string]float64)
	for i := range on {
		switch on[i].Name {
		case "p50_ms", "req_per_s", "cpu_ms_per_req":
			out[on[i].Name] = on[i].Value - off[i].Value
		}
	}
	return out
}

func env() map[string]string {
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"clients":    fmt.Sprint(clients),
	}
}

// resultLine is the JSON object the benchmark prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick selects the named metrics; a missing or non-finite one is an
// error.
func pick(ms []metric, names []string) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(names))
	for _, name := range names {
		found := false
		for _, m := range ms {
			if m.Name == name {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					return nil, fmt.Errorf("metric %s is %v", name, m.Value)
				}
				out[name] = metricValue{Value: m.Value, Unit: m.Unit}
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return out, nil
}

// report prints the run's tables and, last, its result line. It returns
// whether the run was correct.
func (res *runResult) report(w io.Writer) (bool, error) {
	cfg := res.cfg
	e := env()
	fmt.Fprintf(w, "== %s  seed %d  ~%gs  trace %v  %s  nproc %s  GOMAXPROCS %s  clients %s\n",
		res.workload.name, cfg.seed, cfg.seconds, cfg.trace, e["go"], e["nproc"], e["gomaxprocs"], e["clients"])
	fmt.Fprintf(w, "why: %s\n", res.workload.why)
	e2e := res.endToEnd(false, false)
	printTable(w, "end-to-end (untraced rounds, at the reference host speed)", e2e, false)
	printTable(w, "end-to-end (untraced rounds, as measured)", res.endToEnd(false, true), false)
	var speeds []float64
	for _, rs := range res.rounds {
		speeds = append(speeds, rs.speed)
	}
	fmt.Fprintf(w, "host speed: median %.3f of the reference over the rounds, %.3f over the set-ups (calibration kernel %.1f ms on the reference host)\n",
		median(speeds), median(res.setupSpeed), refKernelMS)
	for i, rs := range res.rounds {
		fmt.Fprintf(w, "round %d: %d requests, %d ok, %d cells in %.3fs, p50 %.3f ms, host speed %.3f%s  rows_sha256 %s\n",
			i, rs.requests, rs.ok, rs.cells, rs.wall, median(rs.lat), rs.speed, map[bool]string{true: " (traced)"}[rs.traced], rs.hash)
	}
	fmt.Fprintf(w, "verification: %d attempted, %d failed, %d responses re-run through a fresh library engine\n",
		res.attempted, res.failed, res.sampleSize)
	for _, m := range res.messages {
		fmt.Fprintf(w, "  FAIL %s\n", m)
	}
	correct := res.failed == 0
	all, names := e2e, endToEndNames
	if cfg.trace {
		layers := res.layers()
		printTable(w, "per layer (traced rounds for spans; probes on the workload's own result)", layers, true)
		blocking := res.blockingPath(layers)
		printTable(w, "blocking path self times (medians)", blocking, false)
		over := res.overhead()
		fmt.Fprintf(w, "tracing overhead (traced minus untraced rounds): p50 %+.4f ms, req/s %+.2f, cpu/req %+.4f ms\n",
			over["p50_ms"], over["req_per_s"], over["cpu_ms_per_req"])
		path, err := writeTrace(cfg.out, traceFile{
			Workload: res.workload.name, Seed: cfg.seed, Env: e,
			EndToEnd: e2e, Measured: res.endToEnd(false, true), Layers: layers, Blocking: blocking, Overhead: over, Spans: res.spans,
		})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "trace: %d spans in %s\n", len(res.spans), path)
		all, names = layers, layerNames
	}
	metrics, err := pick(all, names)
	if err != nil {
		fmt.Fprintf(w, "  FAIL %v\n", err)
		correct = false
		metrics = map[string]metricValue{}
	}
	line, err := json.Marshal(resultLine{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%s\n", line)
	return correct, nil
}

func printTable(w io.Writer, title string, ms []metric, moves bool) {
	fmt.Fprintf(w, "%s:\n", title)
	for _, m := range ms {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %-6s %-8s", m.Name, m.Value, m.Unit, n)
		if moves {
			fmt.Fprintf(w, " %s", movesOf(m.Name))
		}
		fmt.Fprintln(w)
	}
}
