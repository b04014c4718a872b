package opusnet

import (
	"strings"
	"testing"

	"photonrail/internal/telemetry"
)

// TestRegisterStatsMetricsMirrorsPayload pins the scrape-vs-stats-frame
// equivalence at its root: every counter in a CacheStatsPayload must
// come back out of a scrape under its documented metric name with the
// exact same value.
func TestRegisterStatsMetricsMirrorsPayload(t *testing.T) {
	payload := CacheStatsPayload{
		Hits: 11, Misses: 7, Evictions: 3, InFlight: 2,
		ExpsExecuted: 5, ExpsDeduped: 2,
		CellsExecuted: 96, CellsDeduped: 6,
		BuildHits: 30, BuildMisses: 18,
		ProvisionHits: 20, ProvisionMisses: 28,
		TimeHits: 10, TimeMisses: 38,
		SeedHits: 9, SeedMisses: 29,
		Backends: []BackendStatsPayload{
			{Addr: "b0", Healthy: true, Cells: 33, Failures: 0},
			{Addr: "b1", Healthy: false, Cells: 15, Failures: 2},
		},
	}
	reg := telemetry.NewRegistry()
	calls := 0
	RegisterStatsMetrics(reg, "fleet", func() CacheStatsPayload {
		calls++
		return payload
	})
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("stats sampled %d times per scrape, want 1", calls)
	}
	samples, err := telemetry.ParseSamples(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"fleet_cache_hits_total":                      11,
		"fleet_cache_misses_total":                    7,
		"fleet_cache_evictions_total":                 3,
		"fleet_cache_inflight":                        2,
		"fleet_exps_executed_total":                   5,
		"fleet_exps_deduped_total":                    2,
		"fleet_cells_executed_total":                  96,
		"fleet_cells_deduped_total":                   6,
		`fleet_stage_hits_total{stage="build"}`:       30,
		`fleet_stage_misses_total{stage="build"}`:     18,
		`fleet_stage_hits_total{stage="provision"}`:   20,
		`fleet_stage_misses_total{stage="provision"}`: 28,
		`fleet_stage_hits_total{stage="time"}`:        10,
		`fleet_stage_misses_total{stage="time"}`:      38,
		`fleet_stage_hits_total{stage="seed"}`:        9,
		`fleet_stage_misses_total{stage="seed"}`:      29,
		`fleet_backend_cells_total{backend="b0"}`:     33,
		`fleet_backend_cells_total{backend="b1"}`:     15,
		`fleet_backend_failures_total{backend="b1"}`:  2,
		`fleet_backend_healthy{backend="b0"}`:         1,
		`fleet_backend_healthy{backend="b1"}`:         0,
	}
	for name, v := range want {
		got, ok := samples[name]
		if !ok {
			t.Errorf("scrape missing %s", name)
			continue
		}
		if got != v {
			t.Errorf("scrape %s = %v, want %v", name, got, v)
		}
	}
	// A daemon payload without backends must not render backend series.
	reg2 := telemetry.NewRegistry()
	RegisterStatsMetrics(reg2, "raild", func() CacheStatsPayload { return CacheStatsPayload{Hits: 1} })
	sb.Reset()
	if err := reg2.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "backend") {
		t.Errorf("daemon scrape leaked backend families:\n%s", sb.String())
	}
}
