package railserve

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/opusnet"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// TestCellsSubsetMatchesGrid: the subset path returns exactly a local
// full-grid run's rows at the requested indices, in request order —
// the invariant the fleet coordinator's merge relies on.
func TestCellsSubsetMatchesGrid(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "subset",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic, scenario.PhotonicStatic},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	})
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	full := localRows(t, photonrail.NewEngine(0), grid)
	s := newTestServer(t, 0, 0)
	s.setClock(steppingClock()) // every tick is due
	c := dialTest(t, s)
	indices := []int{3, 0, 2}
	var mu sync.Mutex
	var ticks []int
	run, err := c.RunCellsCtx(context.Background(), spec, indices, 0, func(done, total int) {
		if total != len(indices) {
			t.Errorf("progress total = %d, want %d", total, len(indices))
		}
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Name != "subset" || len(run.RowJSON) != len(indices) || run.Rows != nil {
		t.Fatalf("run = %q with %d attached and %d structured rows, want %q with %d attached",
			run.Name, len(run.RowJSON), len(run.Rows), "subset", len(indices))
	}
	for i, idx := range indices {
		if got, want := string(run.RowJSON[i]), rowBytes(t, full[idx]); got != want {
			t.Errorf("subset row %d (cell %d) diverged:\n got: %s\nwant: %s", i, idx, got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ticks) == 0 || ticks[len(ticks)-1] != len(indices) {
		t.Errorf("progress ticks = %v", ticks)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsExecuted != uint64(len(indices)) || st.CellsDeduped != 0 {
		t.Errorf("cells executed/deduped = %d/%d, want %d/0", st.CellsExecuted, st.CellsDeduped, len(indices))
	}
}

// TestCellsSingleflightDedup: identical in-flight subset requests
// coalesce onto one execution, exactly like experiments.
func TestCellsSingleflightDedup(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "dedup", LatenciesMS: []float64{5}, Iterations: 1})
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	s.setExecGate(gate)
	c1 := dialTest(t, s)
	c2 := dialTest(t, s)
	indices := []int{0, 1}
	type outcome struct {
		run *CellsRun
		err error
	}
	results := make(chan outcome, 2)
	for _, c := range []*Client{c1, c2} {
		c := c
		go func() {
			run, err := c.RunCellsCtx(context.Background(), spec, indices, 0, nil)
			results <- outcome{run, err}
		}()
	}
	// One execution submitted, one join deduped onto it.
	var submitted, deduped bool
	waitServerEvent(t, s, func(ev telemetry.Event) bool {
		switch {
		case ev.Type == "submitted" && ev.Exp == "cells":
			submitted = true
		case ev.Type == "deduped" && ev.Exp == "cells":
			deduped = true
		}
		return submitted && deduped
	})
	close(gate)
	var runs []*CellsRun
	for i := 0; i < 2; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		runs = append(runs, out.run)
	}
	if runs[0].Shared == runs[1].Shared {
		t.Errorf("shared flags = %v/%v, want exactly one joined request", runs[0].Shared, runs[1].Shared)
	}
	if got, want := bytes.Join(runs[0].RowJSON, nil), bytes.Join(runs[1].RowJSON, nil); len(runs[0].RowJSON) != len(indices) || !bytes.Equal(got, want) {
		t.Error("coalesced subset results diverged")
	}
}

// TestCellsRejectsBadRequests: empty, out-of-range, and duplicate
// index lists are refused before any simulation.
func TestCellsRejectsBadRequests(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "bad", LatenciesMS: []float64{5}, Iterations: 1})
	s := newTestServer(t, 1, 0)
	c := dialTest(t, s)
	cases := []struct {
		indices []int
		want    string
	}{
		{nil, "selects no cells"},
		{[]int{0, 99}, "outside grid"},
		{[]int{-1}, "outside grid"},
		{[]int{1, 1}, "duplicate cell index"},
	}
	for _, tc := range cases {
		if _, err := c.RunCellsCtx(context.Background(), spec, tc.indices, 0, nil); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("indices %v error = %v, want %q", tc.indices, err, tc.want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellsExecuted != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want zero executions for rejected subsets", st)
	}
}

// TestCellsCancelAndDeadline: a gated subset request honors both the
// client context (cancel frame) and the server-side TimeoutMS — and
// the connection survives.
func TestCellsCancelAndDeadline(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "cancel", LatenciesMS: []float64{5}, Iterations: 1})
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	s.setExecGate(gate)
	c := dialTest(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RunCellsCtx(ctx, spec, []int{0}, 0, nil)
		done <- err
	}()
	waitServerEvent(t, s, func(ev telemetry.Event) bool {
		return ev.Type == "submitted" && ev.Exp == "cells"
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled subset request did not return promptly")
	}

	// Server-side deadline on a still-gated execution.
	if _, err := c.RunCellsCtx(context.Background(), spec, []int{1}, 50*time.Millisecond, nil); err == nil ||
		!strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline err = %v", err)
	}
	close(gate)
	s.setExecGate(nil)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection unusable after cancels: %v", err)
	}
}

// TestClientAcceptsLegacyCellsProgress: a backend from before the grid
// frames were retired ticks cells_req progress under the old grid
// progress type. The client must route such a tick to onProgress by
// its payload and keep waiting for the real reply — a coordinator that
// took the tick for a final frame would fail the batch over for
// nothing.
func TestClientAcceptsLegacyCellsProgress(t *testing.T) {
	clientConn, peer := net.Pipe()
	c := NewClient(clientConn)
	t.Cleanup(func() { _ = c.Close() })
	want := []scenario.Row{{Cell: "c0", Status: "ok", Slowdown: 1.5}}
	peerErr := make(chan error, 1)
	go func() {
		defer peer.Close()
		req, err := opusnet.ReadMessage(peer)
		if err != nil {
			peerErr <- err
			return
		}
		if err := opusnet.WriteMessage(peer, &opusnet.Message{Type: "grid_progress", Seq: req.Seq,
			Progress: &opusnet.GridProgress{Done: 1, Total: 1}}); err != nil {
			peerErr <- err
			return
		}
		peerErr <- opusnet.WriteMessage(peer, &opusnet.Message{Type: opusnet.MsgCellsResult, Seq: req.Seq,
			CellsResult: &opusnet.CellsResultPayload{Name: "old", Indices: req.Cells.Indices, Rows: want}})
	}()
	var ticks [][2]int
	run, err := c.RunCellsCtx(context.Background(), scenario.Spec{Name: "old"}, []int{0}, 0, func(done, total int) {
		ticks = append(ticks, [2]int{done, total})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-peerErr; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if len(ticks) != 1 || ticks[0] != [2]int{1, 1} {
		t.Errorf("progress ticks = %v, want [[1 1]]", ticks)
	}
	if got, want := rowsJSON(t, run.Rows), rowsJSON(t, want); got != want {
		t.Errorf("rows = %s, want %s", got, want)
	}
}
