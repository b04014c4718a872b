package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"photonrail/internal/railfleet"
	"photonrail/internal/scenario"
)

// testSeconds sizes the smallest plans: two requests per round.
const testSeconds = 0.01

var (
	goldenOnce sync.Once
	golden     fig8Golden
	goldenErr  error
)

func testGolden(t *testing.T) fig8Golden {
	t.Helper()
	goldenOnce.Do(func() { golden, goldenErr = loadGolden(context.Background(), "..") })
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return golden
}

func TestPlansArePureFunctionsOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.plan(7, 3), w.plan(7, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		if reflect.DeepEqual(a, w.plan(8, 3)) {
			t.Errorf("%s: seeds 7 and 8 give the same plan", w.name)
		}
	}
}

func TestFig8BodiesResolveTo48Cells(t *testing.T) {
	p := fig8Plan(fig8PerSec)(1, 3)
	seen := make(map[string]bool)
	for _, r := range append(p.warmup, flatten(p.rounds)...) {
		var body struct{ Grid *scenario.Spec }
		if err := json.Unmarshal(r.body, &body); err != nil || body.Grid == nil {
			t.Fatalf("%s: body %s does not decode to a grid: %v", r.id, r.body, err)
		}
		g, err := body.Grid.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(g.Expand()); n != 48 || r.cells != 48 {
			t.Errorf("%s: resolves to %d cells (request says %d), want 48", r.id, n, r.cells)
		}
		if g.Name != r.grid || seen[r.grid] {
			t.Errorf("%s: grid name %q is not the request's own unique name", r.id, g.Name)
		}
		seen[r.grid] = true
	}
}

// TestGeneratedGridsShareNoWorkload pins that every cold grid misses
// the memo: no two grids of a cold-sweep round, and no two fresh or
// bulk grids of a tenant-mix run, share a workload key.
func TestGeneratedGridsShareNoWorkload(t *testing.T) {
	cold := coldPlan(1, 15)
	ten := tenantPlan(1, 15)
	for name, reqs := range map[string][]request{
		"cold-sweep": cold.rounds[0],
		"tenant-mix": append(flatten(ten.rounds), flatten(ten.bulk)...),
	} {
		owner := make(map[string]string)
		for _, r := range reqs {
			if r.kind != kindGrid {
				continue
			}
			g, err := r.spec.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			cells := g.Expand()
			if name == "cold-sweep" && (len(cells) < 7 || len(cells) > 10) {
				t.Errorf("%s: %d cells, want 7-10", r.id, len(cells))
			}
			for _, c := range cells {
				key := railfleet.WorkloadKey(c)
				if o, ok := owner[key]; ok && o != r.grid {
					t.Errorf("%s: %s and %s share workload %s", name, o, r.grid, key)
				}
				owner[key] = r.grid
			}
		}
	}
}

func TestVerifierCatchesCorruptResponses(t *testing.T) {
	ctx := context.Background()
	v := newVerifier(testGolden(t))
	tr := newTracer()
	st, err := startStack(false, "", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	c := newClient(st.url, 1, v, tr)
	defer c.close()

	fig8 := newRequest("fig8-5d-verify", "fig8-5d", "", scenario.SpecOf(scenario.Fig8Grid5D()), kindFig8)
	grid := coldPlan(5, 1).rounds[0][0]
	v.keepBodies([]request{grid})
	var buf bytes.Buffer
	if o := c.run(ctx, fig8, &buf); !o.ok {
		t.Fatalf("a correct fig8-5d response was refused: %v", v.messages)
	}
	fig8Body := append([]byte(nil), buf.Bytes()...)
	if o := c.run(ctx, grid, &buf); !o.ok {
		t.Fatalf("a correct grid response was refused: %v", v.messages)
	}
	if _, _, err := v.rerun(ctx, []request{grid}); err != nil || v.failures != 0 {
		t.Fatalf("library re-run of a correct response: err %v, failures %v", err, v.messages)
	}

	// One changed digit, in each way a response is verified.
	corrupt := func(b []byte) []byte {
		b[bytes.IndexAny(b, "123456789")] = '0'
		return b
	}
	if v.check(fig8, 200, corrupt(fig8Body)) {
		t.Error("a corrupted fig8-5d response passed")
	}
	read := grid
	read.kind = kindRead
	if v.check(read, 200, corrupt(append([]byte(nil), v.body(grid.grid)...))) {
		t.Error("a corrupted read of a stored result passed")
	}
	corrupt(v.body(grid.grid)) // the kept response, compared by the re-run
	if _, _, err := v.rerun(ctx, []request{grid}); err != nil {
		t.Fatal(err)
	}
	if v.failures != 3 {
		t.Errorf("failures = %d, want 3: %v", v.failures, v.messages)
	}
}

// tracedRuns caches one traced tiny run per workload, shared by the
// smoke test and the exact-count test.
var tracedRuns sync.Map // workload name -> *runResult

func tracedRun(t *testing.T, w workload) *runResult {
	t.Helper()
	if res, ok := tracedRuns.Load(w.name); ok {
		return res.(*runResult)
	}
	res := mustRun(t, w, tinyConfig(t, true))
	tracedRuns.Store(w.name, res)
	return res
}

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: testSeconds, trace: trace, fig8: testGolden(t),
		scratch: t.TempDir(), out: t.TempDir(), setups: 1}
}

// TestWorkloads runs every workload once, traced, at tiny sizes through
// the real stack: every response verifies, every metric BENCHMARK.json
// declares is measured with its declared unit, and the report writes
// trace.json.
func TestWorkloads(t *testing.T) {
	decl := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := tracedRun(t, w)
			for name, ms := range map[string][]metric{"end_to_end": res.endToEnd(false, false), "per_layer": res.layers()} {
				got, err := pick(ms, namesOf(decl[name]))
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range decl[name] {
					if got[d.Name].Unit != d.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json says %q", d.Name, got[d.Name].Unit, d.Unit)
					}
				}
			}
			res.cfg.out = t.TempDir()
			if ok, err := res.report(io.Discard); !ok || err != nil {
				t.Errorf("report: ok %v, err %v", ok, err)
			}
			if _, err := os.Stat(filepath.Join(res.cfg.out, "trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCountsRepeatExactly runs every workload a second time at the same
// seed, untraced: the engine's misses over each stack's lifetime and
// what each round executed and stored must repeat exactly, and the
// fleet must never fail over.
func TestCountsRepeatExactly(t *testing.T) {
	lifetime := []string{"photonrail.build_misses", "photonrail.provision_misses", "photonrail.time_misses"}
	round := []string{"railserve.exps_executed", "resultstore.puts", "railfleet.failovers"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := tracedRun(t, w), mustRun(t, w, tinyConfig(t, false))
			for i := range a.rounds {
				for _, k := range lifetime {
					if x, y := a.rounds[i].after[k], b.rounds[i].after[k]; x != y {
						t.Errorf("round %d: %s = %v then %v", i, k, x, y)
					}
				}
				for _, k := range round {
					if x, y := a.rounds[i].delta[k], b.rounds[i].delta[k]; x != y {
						t.Errorf("round %d: %s = %v then %v", i, k, x, y)
					}
				}
				if f := b.rounds[i].delta["railfleet.failovers"]; f != 0 {
					t.Errorf("round %d: %v failovers", i, f)
				}
			}
		})
	}
}

// TestCalibrationKernelAllocatesNothing pins that timing the host's
// speed never starts a collection of the stack's heap.
func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(3, func() { c.kernel() }); n != 0 {
		t.Errorf("kernel allocates %v objects per run, want 0", n)
	}
}

// TestEndToEndAtReferenceSpeed pins the direction of the scaling: on a
// host faster than the reference, times grow and rates shrink.
func TestEndToEndAtReferenceSpeed(t *testing.T) {
	res := &runResult{peakRSS: 100, setup: []float64{0.5}, setupSpeed: []float64{2}, rounds: []roundStats{{
		speed: 2, wall: 1, requests: 10, ok: 10, cells: 40, lat: []float64{3}, use: usage{cpuMS: 40},
	}}}
	value := func(ms []metric) map[string]float64 {
		out := make(map[string]float64)
		for _, m := range ms {
			out[m.Name] = m.Value
		}
		return out
	}
	ref, raw := value(res.endToEnd(false, false)), value(res.endToEnd(false, true))
	k := math.Pow(2, speedExponent)
	for name, want := range map[string]float64{"setup_s": k, "req_per_s": 1 / k, "cells_per_s": 1 / k, "p50_ms": k, "cpu_ms_per_req": k, "peak_rss_mb": 1} {
		if got := ref[name] / raw[name]; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: reference/measured = %v, want %v", name, got, want)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-seconds", "0"},
		{"extra"},
	} {
		if code := runMain(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
	}
}

func mustRun(t *testing.T, w workload, cfg config) *runResult {
	t.Helper()
	res, err := run(context.Background(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d requests failed: %v", res.failed, res.attempted, res.messages)
	}
	return res
}

type declared struct{ Name, Unit string }

// readBenchmarkJSON returns BENCHMARK.json's metric lists, after
// checking that it names exactly this benchmark's workloads.
func readBenchmarkJSON(t *testing.T) map[string][]declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	if !reflect.DeepEqual(namesOf(b.EndToEnd), endToEndNames) || !reflect.DeepEqual(namesOf(b.PerLayer), layerNames) {
		t.Errorf("BENCHMARK.json metrics differ from what the result line reports")
	}
	return map[string][]declared{"end_to_end": b.EndToEnd, "per_layer": b.PerLayer}
}

func namesOf(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

func flatten(rs [][]request) []request {
	var out []request
	for _, r := range rs {
		out = append(out, r...)
	}
	return out
}
