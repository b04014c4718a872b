package railfleet

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// The fleet side of the request contract raild's exp tests pin: the
// coordinator serves exp_req on the same core, so cancellation,
// deadlines, coalescing and progress fan-out must hold through it too.
// Every test holds the backends with faultnet instead of gating the
// coordinator.

type expOutcome struct {
	run *railserve.ExpRun
	err error
}

func runAsync(ctx context.Context, c *railserve.Client, req opusnet.ExpRequestPayload) <-chan expOutcome {
	out := make(chan expOutcome, 1)
	go func() {
		run, err := c.RunExperiment(ctx, req, nil)
		out <- expOutcome{run, err}
	}()
	return out
}

// TestFleetExpCancelStopsOnlyRequester: two clients join one held fleet
// execution; one cancels. The cancelled client returns promptly, the
// other still gets rows byte-identical to a local run, and the
// coordinator counts one execution and one join.
func TestFleetExpCancelStopsOnlyRequester(t *testing.T) {
	fl := startFleet(t, 2, 8)
	release := fl.holdBackends()
	defer release()
	c1, c2 := fl.dialCoord(t), fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "cancel-one", LatenciesMS: []float64{5, 20}, Iterations: 1})
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	res1 := runAsync(ctx1, c1, gridReq(spec))
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "submitted" && ev.Exp == "grid" })
	res2 := runAsync(context.Background(), c2, gridReq(spec))
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "deduped" && ev.Exp == "grid" })

	cancel1()
	select {
	case out := <-res1:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("cancelled client err = %v, want context.Canceled", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled client did not return promptly")
	}

	release()
	out := <-res2
	if out.err != nil {
		t.Fatalf("surviving client err = %v (peer's cancel must not disturb it)", out.err)
	}
	if out.run.RowsJSON != localGridJSON(t, grid) {
		t.Error("surviving client's rows diverged from a local run")
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 1 {
		t.Fatalf("coordinator exps executed/deduped = %d/%d, want 1/1", st.ExpsExecuted, st.ExpsDeduped)
	}
}

// TestFleetExpDeadline: a request whose TimeoutMS elapses while the
// fleet execution is held fails with a deadline error, and the
// connection still serves an unheld rerun.
func TestFleetExpDeadline(t *testing.T) {
	fl := startFleet(t, 2, 8)
	release := fl.holdBackends()
	defer release()
	c := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "deadline", LatenciesMS: []float64{5}, Iterations: 1})
	req := gridReq(spec)
	req.TimeoutMS = 50
	if _, err := c.RunExperiment(context.Background(), req, nil); err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline err = %v", err)
	}
	release()
	run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != localGridJSON(t, grid) {
		t.Error("rerun rows diverged from a local run")
	}
}

// TestFleetExpProxiedCoalesce: two concurrent identical non-grid
// requests coalesce at the coordinator — one execution, one join — and
// reach the backend as a single exp_req.
func TestFleetExpProxiedCoalesce(t *testing.T) {
	fl := startFleet(t, 2, 8)
	held := fl.net.Endpoint(fl.coord.proxyOrder("table3")[0].address())
	held.HoldAtFrame(held.Frames() + 1)
	defer held.Release()
	c1, c2 := fl.dialCoord(t), fl.dialCoord(t)
	req := opusnet.ExpRequestPayload{Name: "table3"}

	admitted := 0
	admittedTable3 := func(ev telemetry.Event) bool {
		if ev.Exp == "table3" && (ev.Type == "submitted" || ev.Type == "deduped") {
			admitted++
		}
		return admitted == 2
	}
	res1 := runAsync(context.Background(), c1, req)
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "submitted" && ev.Exp == "table3" })
	res2 := runAsync(context.Background(), c2, req)
	waitEvent(t, fl.coord.Telemetry(), admittedTable3)
	held.Release()

	out1, out2 := <-res1, <-res2
	if out1.err != nil || out2.err != nil {
		t.Fatalf("errs = %v / %v", out1.err, out2.err)
	}
	if out1.run.Rendered != out2.run.Rendered || !strings.Contains(out1.run.Rendered, "Table 3") {
		t.Errorf("coalesced renderings diverged or are not table3: %.80q / %.80q", out1.run.Rendered, out2.run.Rendered)
	}
	if out1.run.Shared == out2.run.Shared {
		t.Errorf("shared flags = %v/%v, want exactly one joined request", out1.run.Shared, out2.run.Shared)
	}
	st, err := c1.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 1 {
		t.Errorf("coordinator exps executed/deduped = %d/%d, want 1/1", st.ExpsExecuted, st.ExpsDeduped)
	}
	var reached uint64
	for _, s := range fl.backends {
		bst := s.Stats()
		reached += bst.ExpsExecuted + bst.ExpsDeduped
	}
	if reached != 1 {
		t.Errorf("backends saw %d exp_req, want 1", reached)
	}
}

// TestFleetExpDepartedWaiterGetsNoProgress: a raw-frame client joins a
// held fleet execution and cancels. After its error frame, no progress
// frame for the cancelled seq may reach it: a stats_req sent once the
// execution completed fences the stream.
func TestFleetExpDepartedWaiterGetsNoProgress(t *testing.T) {
	fl := startFleet(t, 2, 8)
	release := fl.holdBackends()
	defer release()
	spec := scenario.SpecOf(scenario.Grid{Name: "departed", LatenciesMS: []float64{5, 10, 20}, Iterations: 1})
	resA := runAsync(context.Background(), fl.dialCoord(t), gridReq(spec))
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "submitted" && ev.Exp == "grid" })

	conn, err := fl.net.Dial("coord")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	req := gridReq(spec)
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgExpReq, Seq: 1, Exp: &req}); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "deduped" && ev.Exp == "grid" })
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgCancel, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	for {
		m, err := opusnet.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if m.Seq == 1 && m.Type == opusnet.MsgErr {
			break
		}
	}

	release()
	if out := <-resA; out.err != nil {
		t.Fatalf("remaining waiter: %v", out.err)
	}
	if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgStatsReq, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	stale := 0
	for {
		m, err := opusnet.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == opusnet.MsgStatsResp && m.Seq == 2 {
			break
		}
		if m.Seq == 1 {
			stale++
		}
	}
	if stale != 0 {
		t.Errorf("%d frames for the cancelled seq arrived after its error frame, want 0", stale)
	}
}
