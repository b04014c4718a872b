package railfleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// scrapeCounters renders the coordinator's metrics registry and keeps
// only the monotonic series (counters and histogram buckets/sums) —
// the set that must never decrease, scrape over scrape.
func scrapeCounters(t *testing.T, f *Coordinator) map[string]float64 {
	t.Helper()
	var b strings.Builder
	f.tel.Metrics.Render(&b)
	all, err := telemetry.ParseSamples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(all))
	for name, v := range all {
		base := name
		if i := strings.IndexByte(base, '{'); i >= 0 {
			base = base[:i]
		}
		if strings.HasSuffix(base, "_total") || strings.HasSuffix(base, "_bucket") ||
			strings.HasSuffix(base, "_sum") || strings.HasSuffix(base, "_count") {
			out[name] = v
		}
	}
	return out
}

// aggCounters extracts the fleet-aggregated cache counters of a stats
// payload — the values that must stay monotonic when a backend dies.
func aggCounters(st opusnet.CacheStatsPayload) map[string]uint64 {
	return map[string]uint64{
		"hits":       st.Hits,
		"misses":     st.Misses,
		"evictions":  st.Evictions,
		"cells_exec": st.CellsExecuted,
		"cells_dedu": st.CellsDeduped,
		"build_hit":  st.BuildHits, "build_miss": st.BuildMisses,
		"prov_hit": st.ProvisionHits, "prov_miss": st.ProvisionMisses,
		"time_hit": st.TimeHits, "time_miss": st.TimeMisses,
		"seed_hit": st.SeedHits, "seed_miss": st.SeedMisses,
	}
}

// TestFleetStatsMonotonicAcrossBackendKill is the regression test for
// the vanishing-contribution bug: killing a backend between two stats
// queries must not make any fleet aggregate go backwards. The dead
// backend keeps contributing its last-known-good counters and is
// reported unhealthy.
func TestFleetStatsMonotonicAcrossBackendKill(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)

	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
		t.Fatal(err)
	}

	// First observation: queries every backend and retains its payload.
	st1, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st1.CellsExecuted != 48 {
		t.Fatalf("fleet executed %d cells, want 48", st1.CellsExecuted)
	}
	for _, b := range st1.Backends {
		if !b.Healthy {
			t.Fatalf("backend %s unhealthy before the kill", b.Addr)
		}
	}
	scrape1 := scrapeCounters(t, fl.coord)

	// Kill one backend's endpoint: its live connections drop and new
	// dials fail, so the next stats query cannot reach it.
	fl.net.Endpoint("b1").Kill()

	st2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for name, v1 := range aggCounters(st1) {
		if v2 := aggCounters(st2)[name]; v2 < v1 {
			t.Errorf("aggregate %s went backwards after kill: %d -> %d", name, v1, v2)
		}
	}
	var sawDead bool
	for _, b := range st2.Backends {
		if b.Addr == "b1" {
			sawDead = true
			if b.Healthy {
				t.Error("killed backend still reported healthy")
			}
		}
	}
	if !sawDead {
		t.Fatal("killed backend missing from the per-backend view")
	}

	// The same invariant through the /metrics surface: every monotonic
	// series present in the first scrape is >= in the second.
	scrape2 := scrapeCounters(t, fl.coord)
	for name, v1 := range scrape1 {
		v2, ok := scrape2[name]
		if !ok {
			t.Errorf("series %s vanished from the scrape after kill", name)
			continue
		}
		if v2 < v1 {
			t.Errorf("series %s went backwards after kill: %g -> %g", name, v1, v2)
		}
	}
}

// TestFleetStatsAfterClose is the regression test for the cancelled
// base-context bug: Stats on a closed coordinator must return promptly
// with the local counters and retained backend contributions — every
// backend unhealthy — instead of racing statsTimeout against a dead
// context.
func TestFleetStatsAfterClose(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)

	spec := scenario.SpecOf(scenario.Grid{Name: "pre-close", LatenciesMS: []float64{5}, Iterations: 1})
	if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
		t.Fatal(err)
	}
	st1, err := c.Stats() // retains per-backend payloads
	if err != nil {
		t.Fatal(err)
	}
	if err := fl.coord.Close(); err != nil {
		t.Fatal(err)
	}

	type result struct{ st opusnet.CacheStatsPayload }
	done := make(chan result, 1)
	go func() { done <- result{fl.coord.Stats()} }()
	var st2 opusnet.CacheStatsPayload
	select {
	case r := <-done:
		st2 = r.st
	case <-time.After(2 * time.Second):
		t.Fatal("Stats did not return promptly after Close")
	}

	if len(st2.Backends) != 2 {
		t.Fatalf("post-Close backends = %d, want 2", len(st2.Backends))
	}
	for _, b := range st2.Backends {
		if b.Healthy {
			t.Errorf("backend %s reported healthy after Close", b.Addr)
		}
	}
	if st2.ExpsExecuted != st1.ExpsExecuted {
		t.Errorf("post-Close exps executed = %d, want %d", st2.ExpsExecuted, st1.ExpsExecuted)
	}
	for name, v1 := range aggCounters(st1) {
		if v2 := aggCounters(st2)[name]; v2 < v1 {
			t.Errorf("aggregate %s went backwards after Close: %d -> %d", name, v1, v2)
		}
	}
}

// TestFleetObservabilityEndToEnd is the PR's acceptance e2e: a
// 3-backend fleet serves the 48-cell fig8-5d grid while /metrics is
// scraped concurrently over HTTP and one backend is killed mid-grid.
// Afterwards: the request-latency histogram has samples, the scraped
// cache/stage counters equal the framed stats_resp exactly, the
// sharded-event distribution covers all 48 cells, the failover counter
// incremented, and consecutive scrapes stay monotonic with the backend
// dead.
func TestFleetObservabilityEndToEnd(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fl := startFleet(t, 3, 4)
	hs := httptest.NewServer(fl.coord.Telemetry().Handler())
	t.Cleanup(hs.Close)
	c := fl.dialCoord(t)

	// Concurrent scrapers hammer /metrics for the whole grid run; each
	// scrape triggers the stats fan-out, so this also races stats
	// queries against execution and the kill.
	stopScrape := make(chan struct{})
	var swg sync.WaitGroup
	for i := 0; i < 3; i++ {
		swg.Add(1)
		go func() {
			defer swg.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				resp, err := http.Get(hs.URL + "/metrics")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					_ = resp.Body.Close()
				}
			}
		}()
	}

	// Kill a backend that holds cells, mid-grid (after 2 served frames:
	// past its first progress frame, before its first batch result).
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := AssignWeighted(cells, all, staticTargets(0, 1, 2))
	victim := -1
	for i := 0; i < 3; i++ {
		if len(assignment[StaticID(i)]) > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no backend received cells")
	}
	fl.net.Endpoint(fmt.Sprintf("b%d", victim)).KillAfterFrames(2)

	run, err := c.RunExperiment(context.Background(), gridReq(scenario.SpecOf(scenario.Fig8Grid5D())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("rows diverged from the local engine's under scrape load")
	}
	close(stopScrape)
	swg.Wait()

	// Shard distribution: wave-0 sharded events cover all 48 cells.
	events := fl.coord.Telemetry().Events.Snapshot()
	wave0 := 0
	failoverEvents := 0
	for _, ev := range events {
		if ev.Type == "sharded" && ev.Wave == 0 {
			wave0 += ev.Cells
		}
		if ev.Type == "failover" {
			failoverEvents++
		}
	}
	if wave0 != 48 {
		t.Errorf("wave-0 sharded events cover %d cells, want 48", wave0)
	}
	if failoverEvents == 0 {
		t.Error("no failover event despite the mid-grid kill")
	}

	// Scrape vs stats_resp: the same quiescent process must report the
	// same numbers through both surfaces.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := telemetry.ParseSamples(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantEqual := map[string]uint64{
		"railfleet_cache_hits_total":                    st.Hits,
		"railfleet_cache_misses_total":                  st.Misses,
		"railfleet_cells_executed_total":                st.CellsExecuted,
		"railfleet_exps_executed_total":                 st.ExpsExecuted,
		"railfleet_stage_hits_total{stage=\"build\"}":   st.BuildHits,
		"railfleet_stage_misses_total{stage=\"build\"}": st.BuildMisses,
		"railfleet_stage_hits_total{stage=\"time\"}":    st.TimeHits,
		"railfleet_stage_misses_total{stage=\"time\"}":  st.TimeMisses,
	}
	for series, want := range wantEqual {
		if got, ok := scrape[series]; !ok || got != float64(want) {
			t.Errorf("scrape %s = %v (present %v), stats_resp says %d", series, got, ok, want)
		}
	}

	// The request-latency histogram sampled the grid request.
	if n := scrape[`railfleet_request_duration_seconds_count{experiment="grid"}`]; n != 1 {
		t.Errorf("grid latency histogram count = %v, want 1", n)
	}
	if scrape["railfleet_failovers_total"] == 0 {
		t.Error("failover counter did not increment on the mid-grid kill")
	}

	// Monotonicity holds scrape-over-scrape with the backend dead.
	s1 := scrapeCounters(t, fl.coord)
	s2 := scrapeCounters(t, fl.coord)
	for name, v1 := range s1 {
		if v2, ok := s2[name]; !ok || v2 < v1 {
			t.Errorf("series %s regressed across scrapes with a dead backend: %g -> %g (present %v)", name, v1, v2, ok)
		}
	}
}

// TestFleetStatsOneMembershipView applies "scrape ≡ stats frame" to
// membership: on a fresh 2-static fleet — before any request, after
// one grid, and after one backend is killed — every stats_resp member
// has a state, Healthy says exactly "the state is healthy", and the
// railfleet_members{state} gauge counts the same states.
func TestFleetStatsOneMembershipView(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)
	check := func(point string) {
		t.Helper()
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]float64{}
		for _, b := range st.Backends {
			if b.State == "" {
				t.Errorf("%s: member %s has no state", point, b.ID)
			}
			if b.Healthy != (b.State == string(railctl.StateHealthy)) {
				t.Errorf("%s: member %s healthy=%v in state %q", point, b.ID, b.Healthy, b.State)
			}
			counts[b.State]++
		}
		scrape := coordCounters(t, fl.coord)
		for _, state := range []railctl.State{railctl.StateHealthy, railctl.StateDraining, railctl.StateDrained, railctl.StateDead} {
			series := fmt.Sprintf("railfleet_members{state=%q}", state)
			if got := scrape[series]; got != counts[string(state)] {
				t.Errorf("%s: %s = %v, stats_resp counts %v", point, series, got, counts[string(state)])
			}
		}
	}
	check("before any request")
	spec := scenario.SpecOf(scenario.Grid{Name: "one-view", LatenciesMS: []float64{5}, Iterations: 1})
	if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
		t.Fatal(err)
	}
	check("after one grid")
	fl.net.Endpoint("b1").Kill()
	check("after killing b1")
}
