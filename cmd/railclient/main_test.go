package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/railfleet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
)

// testContext returns a context that ends with the test, as
// testing.T.Context does from Go 1.24 on; the module builds with Go
// 1.22.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

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
	err := run(testContext(t), []string{"-addr", addr, "-par", "4:2:2", "-latencies", "5", "-iters", "1", "-format", "csv"},
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

// TestRemoteStats: -stats with -addr prints the daemon's serving
// stats. -progress is accepted too, but this grid finishes inside one
// progress interval, so the daemon sends no tick to print;
// TestLocalProgress covers the progress lines.
func TestRemoteStats(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	if err := run(testContext(t), []string{"-addr", addr, "-par", "4:2:2", "-latencies", "5", "-iters", "1",
		"-format", "csv", "-stats", "-progress"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "exps 1 executed") {
		t.Errorf("stats = %q", errb.String())
	}
	var so, se bytes.Buffer
	if err := run(testContext(t), []string{"-addr", addr, "-daemon-stats"}, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(so.String(), "daemon: cache") {
		t.Errorf("daemon-stats = %q", so.String())
	}
}

func TestRemoteExperimentMatchesLocal(t *testing.T) {
	addr := startDaemon(t)
	var out, errb bytes.Buffer
	if err := run(testContext(t), []string{"-addr", addr, "-exp", "table3", "-timeout", "1m"}, &out, &errb); err != nil {
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
	run, err := c.RunExperiment(testContext(t), opusnet.ExpRequestPayload{Name: "fig8-5d", Grid: &spec}, nil)
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

// TestRejectsBadInput: malformed dimensions, unknown experiments,
// negative counts, flag conflicts and unreachable daemons fail before
// anything prints — on both paths.
func TestRejectsBadInput(t *testing.T) {
	addr := startDaemon(t)
	cases := [][]string{
		{"-grid", "nope"},
		{"-models", "GPT-17"},
		{"-gpus", "TPU"},
		{"-fabrics", "teleport"},
		{"-latencies", "x"},
		{"-latencies", "-4"},
		{"-par", "4:2"},
		{"-schedules", "zigzag"},
		{"-eager", "maybe"},
		{"-nic", "3x133"},
		{"-format", "yaml", "-iters", "1"},
		{"-exp", "fig99"},
		{"-exp", "table1,fig99"},
		{"-exp", ","},
		{"-exp", "fig8", "-latencies", "1,x"},
		{"-exp", "fig8", "-latencies", "-1"},
		{"-exp", "bom", "-cluster-gpus", "-1"},
		{"-exp", "fig4", "-window-iters", "-1"},
		{"-exp", "fig3", "-rail", "-1"},
		{"-parallel", "-1"},
		{"-daemon-stats"}, // no daemon to ask
		{"-nope"},
		{"positional"},
		// Spellings of the commands railclient replaced fail loudly
		// rather than run something else.
		{"-gpus", "0", "-bom"},
		{"-iterations", "0"},
		{"-json", "-exp", "fig7"},
		{"-clients", "0"},
		{"-mix", "nonsense"},
		{"-addr", addr, "-parallel", "2"}, // a daemon sizes its own engine
		{"-addr", addr, "-models", "GPT-17"},
		{"-addr", addr, "-format", "yaml"},
		{"-addr", addr, "-exp", "fig99"},
		{"-addr", "127.0.0.1:1", "-par", "4:2:2"}, // nothing listening
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(testContext(t), args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
		if out.Len() > 0 {
			t.Errorf("args %v printed %q before failing", args, out.String())
		}
	}
}

func TestListCatalog(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(testContext(t), []string{"-list"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig8-5d", "Llama3-8B", "A100", "provisioned", "window-analysis", "all: table1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("catalog missing %q:\n%s", want, out.String())
		}
	}
}

// TestFig8GridParallelMatchesSequential is the in-process acceptance
// check: the built-in >=24-cell grid in parallel produces output
// byte-identical to -parallel 1, with skips reported and the shared
// electrical baselines simulated exactly once per batch (5 workload
// baselines + 15 photonic + 15 provisioned points + 5 compiled
// programs, one per workload for every fabric = 40 misses; every
// further lookup is a hit).
func TestFig8GridParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full fig8-5d grid twice")
	}
	if n := len(photonrail.Fig8Grid5D().Expand()); n < 24 {
		t.Fatalf("fig8-5d has %d cells, want >= 24", n)
	}
	runGrid := func(parallel string) (string, string) {
		var out, errb bytes.Buffer
		if err := run(testContext(t), []string{"-grid", "fig8-5d", "-parallel", parallel, "-stats"}, &out, &errb); err != nil {
			t.Fatal(err)
		}
		return out.String(), errb.String()
	}
	seq, seqStats := runGrid("1")
	par, parStats := runGrid("8")
	if seq != par {
		t.Error("parallel output differs from sequential")
	}
	if !strings.Contains(seq, "skip: ") || !strings.Contains(seq, "(C2)") {
		t.Error("skips not reported in table output")
	}
	if !strings.Contains(seqStats, "engine: 1 workers") || !strings.Contains(parStats, "engine: 8 workers") {
		t.Errorf("-parallel did not size the engine: %q / %q", seqStats, parStats)
	}
	for _, stats := range []string{seqStats, parStats} {
		if !strings.Contains(stats, "/ 40 misses") {
			t.Errorf("cache stats = %q, want exactly 40 misses (shared baselines simulated once)", stats)
		}
	}
}

// TestLocalProgress: the in-process path streams per-cell progress to
// stderr, like a daemon's ticks.
func TestLocalProgress(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(testContext(t), append([]string{"-progress", "-format", "csv"}, smallGrid...), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errb.String(), "railclient: 3/3 cells") {
		t.Errorf("progress = %q, want a final 3/3 tick", errb.String())
	}
}

// TestExpAllRunsSweepBatch: -exp all is the table1, table2, table3,
// fig7, fig4, fig8 batch — its text is those six renderings in order,
// and its JSON is one object with exactly those keys.
func TestExpAllRunsSweepBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates fig4 and fig8 at paper scale")
	}
	runOut := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if err := run(testContext(t), args, &out, &errb); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	var want strings.Builder
	for _, name := range sweepBatch {
		want.WriteString(runOut("-exp", name))
	}
	if got := runOut("-exp", "all"); got != want.String() {
		t.Error("-exp all diverged from its six experiments run one by one")
	}
	var rows map[string]json.RawMessage
	if err := json.Unmarshal([]byte(runOut("-exp", "all", "-format", "json")), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sweepBatch) {
		t.Errorf("JSON keys = %d, want %d", len(rows), len(sweepBatch))
	}
	for _, name := range sweepBatch {
		if _, ok := rows[name]; !ok {
			t.Errorf("JSON object lacks %q", name)
		}
	}
}

// TestDaemonStatsHonorsTimeout is the regression test for stats
// queries that ignored -timeout: against a daemon that accepts and
// never replies, -daemon-stats must give up at the deadline.
func TestDaemonStatsHonorsTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 4)
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		for c := range accepted {
			_ = c.Close()
		}
	})
	done := make(chan error, 1)
	go func() {
		var out, errb bytes.Buffer
		done <- run(testContext(t), []string{"-addr", ln.Addr().String(), "-daemon-stats", "-timeout", "200ms"}, &out, &errb)
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the -timeout deadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("-daemon-stats still blocked on a silent daemon 5s past its 200ms -timeout")
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
	if err := run(testContext(t), []string{"-addr", f.Addr(), "-par", "4:2:2", "-latencies", "5", "-iters", "1",
		"-format", "csv"}, &out, &errb); err != nil {
		t.Fatal(err)
	}
	var so, se bytes.Buffer
	if err := run(testContext(t), []string{"-addr", f.Addr(), "-daemon-stats"}, &so, &se); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(so.String(), "fleet: 1 members") {
		t.Fatalf("daemon-stats = %q, want a fleet membership section", so.String())
	}
	if !strings.Contains(so.String(), "s0 ("+backendAddr+"): static healthy") {
		t.Errorf("daemon-stats = %q, want the static member's line", so.String())
	}
}
