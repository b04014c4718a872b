package railfleet

import (
	"context"
	"fmt"
	"net"
	"testing"
	"time"

	"photonrail/internal/faultnet"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
)

// splitSpec is a grid whose six workload keys provably shard across
// two backends (requireSplit pins that), with deliberately light
// cells (4 microbatches of 1): the batch-timeout test needs a healthy
// backend's batch to finish far inside the timeout even under -race.
func splitSpec() scenario.Spec {
	return scenario.Spec{
		Name:   "split",
		Models: []string{"Llama3-8B", "Mixtral-8x7B"},
		Parallelisms: []scenario.Parallelism{
			{TP: 4, DP: 2, PP: 2}, {TP: 2, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2},
		},
		Fabrics:        []string{"electrical", "photonic"},
		LatenciesMS:    []float64{5},
		Microbatches:   4,
		MicrobatchSize: 1,
		Iterations:     1,
	}
}

// requireSplit asserts both backends of a 2-backend fleet receive
// cells for the spec, and returns the local ground-truth rendering and
// the grid's cell count.
func requireSplit(t *testing.T, spec scenario.Spec) (string, int) {
	t.Helper()
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	cells := grid.Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := AssignWeighted(cells, all, staticTargets(0, 1))
	s0, s1 := assignment[StaticID(0)], assignment[StaticID(1)]
	if len(s0) == 0 || len(s1) == 0 {
		t.Fatalf("grid sharded onto one backend (%d/%d); pick axes that split", len(s0), len(s1))
	}
	return localGridJSON(t, grid), len(cells)
}

// legacyBackend serves the opusnet framing like a pre-cells_req raild:
// every frame is answered with an application-level MsgErr on a
// healthy connection — never a transport error.
func legacyBackend(ln net.Listener) {
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					msg, err := opusnet.ReadMessage(conn)
					if err != nil {
						return
					}
					_ = opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgErr, Seq: msg.Seq,
						Error: fmt.Sprintf("railserve: unsupported message type %q", msg.Type)})
				}
			}()
		}
	}()
}

// TestFleetRoutesAroundLegacyBackend pins the mixed-version-fleet
// contract: a backend that deterministically REFUSES cells_req (an old
// raild, answering MsgErr on a healthy connection) is excluded from
// the request's later waves instead of being re-dialed and re-failed
// forever — the grid completes on the backends that do understand the
// frame, byte-identically. Pre-fix, this request never terminated.
func TestFleetRoutesAroundLegacyBackend(t *testing.T) {
	spec := splitSpec()
	wantRows, cells := requireSplit(t, spec)

	fn := faultnet.New()
	t.Cleanup(fn.Close)
	legacyBackend(fn.Listen("b0"))
	real, err := railserve.NewServer(railserve.Config{Listener: fn.Listen("b1"), Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = real.Close(); real.Drain() })
	coord, err := New(Config{
		Listener: fn.Listen("coord"),
		Backends: []string{"b0", "b1"},
		InFlight: 4,
		Dial:     fn.Dial,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close(); coord.Drain() })

	conn, err := fn.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	c := railserve.NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })

	done := make(chan struct{})
	var run *railserve.ExpRun
	var runErr error
	go func() {
		run, runErr = c.RunExperiment(context.Background(), gridReq(spec), nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("mixed fleet never terminated (legacy backend retried forever?)")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("mixed-fleet rows diverged from local")
	}
	if got := real.Stats().CellsExecuted; got != uint64(cells) {
		t.Errorf("real backend executed %d of %d cells", got, cells)
	}
}

// TestFleetBatchTimeoutReshardsWedgedBackend pins the "times out" leg
// of the failover contract: a backend that is alive but wedged (its
// frames held by the fault harness, socket open) has its batch expire
// after BatchTimeout and its cells re-shard to the survivor — the
// client receives the full byte-identical result WITHOUT the wedged
// backend ever being released.
func TestFleetBatchTimeoutReshardsWedgedBackend(t *testing.T) {
	spec := splitSpec()
	wantRows, cells := requireSplit(t, spec)

	fn := faultnet.New()
	t.Cleanup(fn.Close)
	var backends []*railserve.Server
	for i := 0; i < 2; i++ {
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(fmt.Sprintf("b%d", i)), Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, s)
		t.Cleanup(func() { _ = s.Close(); s.Drain() })
	}
	fn.Endpoint("b0").HoldAtFrame(1) // wedged: accepts requests, answers nothing
	t.Cleanup(fn.Endpoint("b0").Release)

	coord, err := New(Config{
		Listener: fn.Listen("coord"),
		Backends: []string{"b0", "b1"},
		InFlight: 4,
		// Generous next to a light batch's worst case (the full grid
		// runs in well under a second even under -race), tiny next to
		// the test's patience: only the wedged backend can trip it.
		BatchTimeout: 5 * time.Second,
		Dial:         fn.Dial,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close(); coord.Drain() })

	conn, err := fn.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	c := railserve.NewClient(conn)
	t.Cleanup(func() { _ = c.Close() })

	run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("rows diverged after a batch-timeout re-shard")
	}
	if got := backends[1].Stats().CellsExecuted; got != uint64(cells) {
		t.Errorf("survivor executed %d of %d cells", got, cells)
	}
}
