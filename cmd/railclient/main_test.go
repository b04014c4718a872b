package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railfleet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
)

func startDaemon(t *testing.T) string {
	t.Helper()
	s, err := railserve.NewServer(railserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s.Addr()
}

func TestRemoteSweepCSV(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	err := run(t.Context(), []string{"-addr", addr, "-par", "4:2:2", "-latencies", "5", "-iters", "1", "-format", "csv"},
		&out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + electrical + photonic@5
		t.Fatalf("csv lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "cell,model,gpu,fabric,latency_ms") {
		t.Errorf("header = %q", lines[0])
	}
}

func TestRemoteStats(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-addr", addr, "-par", "4:2:2", "-latencies", "5", "-iters", "1",
		"-format", "csv", "-stats", "-progress"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "exps 1 executed") {
		t.Errorf("stats = %q", errb.String())
	}
	if !strings.Contains(errb.String(), "railclient: ") {
		t.Errorf("no progress lines in %q", errb.String())
	}
	var so, se bytes.Buffer
	if err := run(t.Context(), []string{"-addr", addr, "-daemon-stats"}, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(so.String(), "daemon: cache") {
		t.Errorf("daemon-stats = %q", so.String())
	}
}

func TestRemoteExperimentMatchesLocal(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-addr", addr, "-exp", "table3", "-timeout", "1m"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	e, ok := photonrail.Lookup("table3")
	if !ok {
		t.Fatal("table3 not registered")
	}
	res, err := e.Run(context.Background(), photonrail.NewEngine(1), photonrail.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.RenderText(&want); err != nil {
		t.Fatal(err)
	}
	if out.String() != want.String() {
		t.Errorf("remote table3 diverged from local:\n got: %q\nwant: %q", out.String(), want.String())
	}
}

// TestRemoteUnnamedBuiltinGridText: fig8-5d sent with an unnamed spec
// runs as grid "", and railclient's print path (railserve.ExpRun.Render
// over the rows the daemon ships) still renders it as a grid, byte-
// identical to a local registry run.
func TestRemoteUnnamedBuiltinGridText(t *testing.T) {
	c, err := railserve.Dial(startDaemon(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := scenario.Spec{LatenciesMS: []float64{5}, Iterations: 1}
	run, err := c.RunExperiment(t.Context(), opusnet.ExpRequestPayload{Name: "fig8-5d", Grid: &spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Grid != "" {
		t.Fatalf("grid name = %q, want the unnamed spec's empty name", run.Grid)
	}
	e, _ := photonrail.Lookup("fig8-5d")
	res, err := e.Run(context.Background(), photonrail.NewEngine(1), photonrail.Params{Grid: &spec})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := res.RenderText(&want); err != nil {
		t.Fatal(err)
	}
	got, err := run.Render("table")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got, "Scenario grid\n") || got != want.String() {
		t.Errorf("unnamed fig8-5d text diverged from the local run:\n got: %q\nwant: %q", got, want.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	addr := startDaemon(t)
	cases := [][]string{
		{"-addr", addr, "-models", "GPT-17"},
		{"-addr", addr, "-format", "yaml"},
		{"-addr", "127.0.0.1:1", "-par", "4:2:2"}, // nothing listening
		{"positional"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(t.Context(), args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestListCatalog(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig8-5d") {
		t.Errorf("catalog = %q", out.String())
	}
}

func TestPrintMemberFormatting(t *testing.T) {
	var b strings.Builder
	if err := printMember(&b, opusnet.BackendStatsPayload{
		Addr: "10.0.0.1:9090", ID: "s0", Static: true, Capacity: 1,
		Healthy: true, State: "healthy", Cells: 48,
	}); err != nil {
		t.Fatal(err)
	}
	if err := printMember(&b, opusnet.BackendStatsPayload{
		Addr: "10.0.0.2:9090", ID: "node-a", Capacity: 4, State: "draining",
		LastHeartbeatAgeMS: 1500, Cells: 7, Failures: 1,
	}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("printed %d lines, want 2:\n%s", len(lines), b.String())
	}
	if want := "  s0 (10.0.0.1:9090): static healthy, capacity 1, cells 48, failures 0"; lines[0] != want {
		t.Errorf("static line = %q, want %q", lines[0], want)
	}
	if want := "  node-a (10.0.0.2:9090): dynamic draining, capacity 4, cells 7, failures 1, heartbeat 1.5s ago"; lines[1] != want {
		t.Errorf("dynamic line = %q, want %q", lines[1], want)
	}
	if strings.Contains(lines[0], "heartbeat") {
		t.Error("static members have no heartbeat; the line must not claim one")
	}
}

// TestDaemonStatsFleetMembership: -daemon-stats against a railfleet
// coordinator prints the per-backend membership view; against a plain
// daemon (TestRemoteStats) it prints none.
func TestDaemonStatsFleetMembership(t *testing.T) {
	backendAddr := startDaemon(t)
	f, err := railfleet.New(railfleet.Config{Addr: "127.0.0.1:0", Backends: []string{backendAddr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close(); f.Drain() })
	// Run a sweep through the coordinator so the static member has been
	// probed healthy and credited cells.
	var out, errb bytes.Buffer
	if err := run(t.Context(), []string{"-addr", f.Addr(), "-par", "4:2:2", "-latencies", "5", "-iters", "1",
		"-format", "csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	var so, se bytes.Buffer
	if err := run(t.Context(), []string{"-addr", f.Addr(), "-daemon-stats"}, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(so.String(), "fleet: 1 members") {
		t.Fatalf("daemon-stats = %q, want a fleet membership section", so.String())
	}
	if !strings.Contains(so.String(), "s0 ("+backendAddr+"): static healthy") {
		t.Errorf("daemon-stats = %q, want the static member's line", so.String())
	}
}
