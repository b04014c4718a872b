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

// localRendering runs a registry experiment in-process and returns the
// three renderings a client must print byte for byte.
func localRendering(t *testing.T, name string, p photonrail.Params) (text, csv, rows string) {
	t.Helper()
	e, ok := photonrail.Lookup(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	res, err := e.Run(context.Background(), photonrail.NewEngine(0), p)
	if err != nil {
		t.Fatal(err)
	}
	var tb, cb, rb bytes.Buffer
	if err := res.RenderText(&tb); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderCSV(&cb); err != nil {
		t.Fatal(err)
	}
	if err := res.RenderJSON(&rb); err != nil {
		t.Fatal(err)
	}
	return tb.String(), cb.String(), rb.String()
}

// TestExpLoopbackByteIdentical: a remote experiment's renderings are
// byte-identical to the local registry run's, for a static table and
// for a simulated sweep.
func TestExpLoopbackByteIdentical(t *testing.T) {
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	cases := []struct {
		req opusnet.ExpRequestPayload
		p   photonrail.Params
	}{
		{opusnet.ExpRequestPayload{Name: "table3"}, photonrail.Params{}},
		{opusnet.ExpRequestPayload{Name: "fig8", Iterations: 1, LatenciesMS: []float64{0, 10}},
			photonrail.Params{Iterations: 1, LatenciesMS: []float64{0, 10}}},
	}
	for _, tc := range cases {
		run, err := c.RunExperiment(context.Background(), tc.req, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.req.Name, err)
		}
		text, csv, rows := localRendering(t, tc.req.Name, tc.p)
		if run.Rendered != text {
			t.Errorf("%s: text rendering diverged:\n got: %q\nwant: %q", tc.req.Name, run.Rendered, text)
		}
		if run.RenderedCSV != csv {
			t.Errorf("%s: CSV rendering diverged", tc.req.Name)
		}
		if run.RowsJSON != rows {
			t.Errorf("%s: JSON rows diverged:\n got: %q\nwant: %q", tc.req.Name, run.RowsJSON, rows)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 2 || st.ExpsDeduped != 0 {
		t.Fatalf("exps executed/deduped = %d/%d, want 2/0", st.ExpsExecuted, st.ExpsDeduped)
	}
}

// TestExpGridThroughExpPath: a grid submitted via exp_req renders all
// three formats byte-identically to a local run of the same grid.
func TestExpGridThroughExpPath(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "exp-grid",
		LatenciesMS: []float64{5},
		Iterations:  1,
	})
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Grid != "exp-grid" {
		t.Errorf("grid name = %q", run.Grid)
	}
	text, csv, rows := localRendering(t, "grid", photonrail.Params{Grid: &spec})
	if got := mustRender(t, run, "table"); got != text {
		t.Errorf("text rendering diverged:\n got: %q\nwant: %q", got, text)
	}
	if got := mustRender(t, run, "csv"); got != csv {
		t.Errorf("CSV rendering diverged:\n got: %q\nwant: %q", got, csv)
	}
	if run.RowsJSON != rows {
		t.Errorf("JSON rows diverged:\n got: %q\nwant: %q", run.RowsJSON, rows)
	}
}

// mustRender renders a run in one output format, as a client prints it.
func mustRender(t *testing.T, run *ExpRun, format string) string {
	t.Helper()
	out, err := run.Render(format)
	if err != nil {
		t.Fatalf("render %s: %v", format, err)
	}
	return out
}

// TestExpResultCarriesRowsOnlyForGrids pins what exp_result carries: a
// grid experiment ships only its JSON rows (its table and CSV are
// derived at the edge that asks), while a non-grid experiment, whose
// text is not a function of its rows, still ships all three.
func TestExpResultCarriesRowsOnlyForGrids(t *testing.T) {
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	spec := scenario.SpecOf(scenario.Grid{Name: "rows-only", LatenciesMS: []float64{5}, Iterations: 1})
	grid, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Rendered != "" || grid.RenderedCSV != "" || grid.RowsJSON == "" {
		t.Errorf("grid exp_result carried rendered %d / renderedCSV %d / rowsJSON %d bytes, want 0 / 0 / >0",
			len(grid.Rendered), len(grid.RenderedCSV), len(grid.RowsJSON))
	}
	eq1, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "eq1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eq1.Rendered == "" || eq1.RenderedCSV == "" || eq1.RowsJSON == "" {
		t.Errorf("eq1 exp_result carried rendered %d / renderedCSV %d / rowsJSON %d bytes, want all three",
			len(eq1.Rendered), len(eq1.RenderedCSV), len(eq1.RowsJSON))
	}
}

// TestRenderFormats pins ExpRun.Render's contract: carried renderings
// are returned as they are (so a new client reads an old daemon's
// three renderings), nothing is derived for a non-grid experiment, and
// unknown formats and undecodable grid rows are errors.
func TestRenderFormats(t *testing.T) {
	carried := &ExpRun{Name: "fig8-5d", Grid: "fig8-5d", Rendered: "old table\n", RenderedCSV: "old,csv\n", RowsJSON: "{}\n"}
	for _, tc := range []struct{ format, want string }{
		{"table", "old table\n"}, {"csv", "old,csv\n"}, {"json", "{}\n"},
	} {
		if got := mustRender(t, carried, tc.format); got != tc.want {
			t.Errorf("carried %s = %q, want %q", tc.format, got, tc.want)
		}
	}
	if got := mustRender(t, &ExpRun{Name: "eq1", RowsJSON: "{}"}, "table"); got != "" {
		t.Errorf("non-grid table derived %q from rows, want the (empty) carried text", got)
	}
	if _, err := carried.Render("yaml"); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := (&ExpRun{Name: "grid", RowsJSON: "{torn"}).Render("csv"); err == nil {
		t.Error("undecodable grid rows rendered")
	}
}

// TestExpCancelStopsOnlyRequester is the daemon cancellation contract:
// two clients join one in-flight experiment; one cancels. The cancelled
// client gets its error promptly; the other still gets the full result;
// exactly one execution ran.
func TestExpCancelStopsOnlyRequester(t *testing.T) {
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	s.setExecGate(gate)
	c1 := dialTest(t, s)
	c2 := dialTest(t, s)
	req := opusnet.ExpRequestPayload{Name: "fig8", Iterations: 1, LatenciesMS: []float64{0, 10}}

	ctx1, cancel1 := context.WithCancel(context.Background())
	type outcome struct {
		run *ExpRun
		err error
	}
	res1 := make(chan outcome, 1)
	res2 := make(chan outcome, 1)
	go func() {
		run, err := c1.RunExperiment(ctx1, req, nil)
		res1 <- outcome{run, err}
	}()
	// Wait until the first request is registered, then join the second.
	waitServerEvent(t, s, func(ev telemetry.Event) bool {
		return ev.Type == "submitted" && ev.Exp == "fig8"
	})
	go func() {
		run, err := c2.RunExperiment(context.Background(), req, nil)
		res2 <- outcome{run, err}
	}()
	waitServerEvent(t, s, func(ev telemetry.Event) bool {
		return ev.Type == "deduped" && ev.Exp == "fig8"
	})

	cancel1()
	select {
	case out := <-res1:
		if !errors.Is(out.err, context.Canceled) {
			t.Fatalf("cancelled client err = %v, want context.Canceled", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled client did not return promptly")
	}

	close(gate) // release the execution with the surviving subscriber
	select {
	case out := <-res2:
		if out.err != nil {
			t.Fatalf("surviving client err = %v (peer's cancel must not disturb it)", out.err)
		}
		text, _, _ := localRendering(t, "fig8", photonrail.Params{Iterations: 1, LatenciesMS: []float64{0, 10}})
		if out.run.Rendered != text {
			t.Errorf("surviving client rendering diverged")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("surviving client never got its result")
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 1 {
		t.Fatalf("exps executed/deduped = %d/%d, want 1/1", st.ExpsExecuted, st.ExpsDeduped)
	}
}

// TestExpDeadline: a request whose TimeoutMS elapses while the
// execution is gated fails with a deadline error — and the connection
// stays usable.
func TestExpDeadline(t *testing.T) {
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	s.setExecGate(gate)
	c := dialTest(t, s)
	_, err := c.RunExperiment(context.Background(),
		opusnet.ExpRequestPayload{Name: "table1", TimeoutMS: 50}, nil)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("deadline err = %v", err)
	}
	close(gate)
	s.setExecGate(nil)
	// The connection survives; an ungated rerun succeeds.
	run, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "table1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(run.Rendered, "Table 1") {
		t.Errorf("rendered = %.80q", run.Rendered)
	}
}

// TestExpRejectsBadRequests: unknown names, grids on non-grid
// experiments, and oversized grids are refused without executing.
func TestExpRejectsBadRequests(t *testing.T) {
	s := newTestServer(t, 1, 0)
	c := dialTest(t, s)
	if _, err := c.RunExperiment(context.Background(),
		opusnet.ExpRequestPayload{Name: "fig99"}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment err = %v", err)
	}
	spec := scenario.SpecOf(scenario.Grid{Name: "g"})
	if _, err := c.RunExperiment(context.Background(),
		opusnet.ExpRequestPayload{Name: "table1", Grid: &spec}, nil); err == nil ||
		!strings.Contains(err.Error(), "does not take a grid") {
		t.Errorf("grid-on-table err = %v", err)
	}
	bomb := scenario.SpecOf(scenario.Grid{
		Name:         "bomb",
		Parallelisms: make([]scenario.Parallelism, 50_000),
		LatenciesMS:  make([]float64, 50_000),
		Fabrics:      []scenario.FabricKind{scenario.Photonic},
	})
	if _, err := c.RunExperiment(context.Background(),
		opusnet.ExpRequestPayload{Name: "grid", Grid: &bomb}, nil); err == nil ||
		!strings.Contains(err.Error(), "request cap") {
		t.Errorf("oversized grid err = %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 0 || st.Misses != 0 {
		t.Fatalf("stats = %+v, want zero executions for rejected requests", st)
	}
}

// TestExpProgressStreams: a grid experiment through the exp path
// streams monotonic progress ticks.
func TestExpProgressStreams(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "prog",
		LatenciesMS: []float64{5},
		Iterations:  1,
	})
	s := newTestServer(t, 0, 0)
	c := dialTest(t, s)
	var mu sync.Mutex
	var ticks []int
	_, err := c.RunExperiment(context.Background(),
		opusnet.ExpRequestPayload{Name: "grid", Grid: &spec},
		func(done, total int) {
			mu.Lock()
			ticks = append(ticks, done)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ticks) == 0 {
		t.Fatal("no progress frames")
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("ticks not increasing: %v", ticks)
		}
	}
}

// waitServerEvent blocks until pred matches over the server's telemetry
// event stream (retained ring replayed first, then live events) — the
// deterministic replacement for the old waitStats sleep-poll. Lifecycle
// events are emitted strictly after the corresponding stats counters
// become visible, so a matched event implies the counter state the old
// polls waited for.
func waitServerEvent(t *testing.T, s *Server, pred func(telemetry.Event) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Telemetry().Events.WaitFor(ctx, pred); err != nil {
		t.Fatalf("event wait: %v", err)
	}
}

// TestRunExperimentCtxTimeout: a client-side deadline — a gated
// execution makes the call block, the context expiry abandons it
// promptly, and the connection stays usable.
func TestRunExperimentCtxTimeout(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "slow", LatenciesMS: []float64{5}, Iterations: 1})
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	s.setExecGate(gate)
	c := dialTest(t, s)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.RunExperiment(ctx, gridReq(spec), nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("RunExperiment took %v after expiry", d)
	}
	close(gate)
	s.setExecGate(nil)
	if _, err := c.Stats(); err != nil {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
}

// TestExpDepartedWaiterGetsNoProgress: a raw-frame client joins a gated
// grid execution and cancels. After its error frame, no progress frame
// for the cancelled seq may reach it: a stats_req sent once the
// execution completed fences the stream.
func TestExpDepartedWaiterGetsNoProgress(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{Name: "departed", LatenciesMS: []float64{5, 10, 20}, Iterations: 1})
	s := newTestServer(t, 0, 0)
	gate := make(chan struct{})
	s.setExecGate(gate)
	resA := make(chan error, 1)
	a := dialTest(t, s)
	go func() {
		_, err := a.RunExperiment(context.Background(), gridReq(spec), nil)
		resA <- err
	}()
	waitServerEvent(t, s, func(ev telemetry.Event) bool { return ev.Type == "submitted" && ev.Exp == "grid" })

	conn, err := net.Dial("tcp", s.Addr())
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
	waitServerEvent(t, s, func(ev telemetry.Event) bool { return ev.Type == "deduped" && ev.Exp == "grid" })
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

	close(gate)
	if err := <-resA; err != nil {
		t.Fatalf("remaining waiter: %v", err)
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
