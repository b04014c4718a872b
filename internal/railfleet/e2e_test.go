package railfleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail"
	"photonrail/internal/faultnet"
	"photonrail/internal/opusnet"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// fleet is one in-process coordinator + backends on the fault network.
type fleet struct {
	net      *faultnet.Network
	coord    *Coordinator
	backends []*railserve.Server
}

// newFleet builds an n-backend fleet on a fresh fault-injection
// network, without registering cleanup (the benchmark tears fleets
// down per iteration). Backend endpoints are named "b0".."bN-1"; the
// coordinator listens on "coord".
func newFleet(tb testing.TB, n, inFlight int) *fleet {
	tb.Helper()
	var logf func(format string, args ...any)
	if _, isTest := tb.(*testing.T); isTest {
		logf = tb.Logf // benchmarks stay quiet
	}
	fn := faultnet.New()
	fl := &fleet{net: fn}
	var addrs []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("b%d", i)
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(name), Workers: 2, Logf: logf})
		if err != nil {
			tb.Fatal(err)
		}
		fl.backends = append(fl.backends, s)
		addrs = append(addrs, name)
	}
	coord, err := New(Config{
		Listener: fn.Listen("coord"),
		Backends: addrs,
		InFlight: inFlight,
		Dial:     fn.Dial,
		Logf:     logf,
	})
	if err != nil {
		tb.Fatal(err)
	}
	fl.coord = coord
	return fl
}

// stop tears the fleet down, draining abandoned executions.
func (fl *fleet) stop() {
	_ = fl.coord.Close()
	fl.coord.Drain()
	for _, s := range fl.backends {
		_ = s.Close()
		s.Drain()
	}
	fl.net.Close()
}

// holdBackends withholds every backend's frames from now on, so a fleet
// execution stays in flight with no hook in the coordinator, and
// returns the (idempotent) release.
func (fl *fleet) holdBackends() (release func()) {
	var eps []*faultnet.Endpoint
	for i := range fl.backends {
		ep := fl.net.Endpoint(fmt.Sprintf("b%d", i))
		ep.HoldAtFrame(ep.Frames() + 1)
		eps = append(eps, ep)
	}
	return func() {
		for _, ep := range eps {
			ep.Release()
		}
	}
}

// startFleet is newFleet with test-scoped cleanup.
func startFleet(t *testing.T, n, inFlight int) *fleet {
	t.Helper()
	fl := newFleet(t, n, inFlight)
	t.Cleanup(fl.stop)
	return fl
}

// dialCoord connects a railserve client to the fleet's coordinator —
// the unchanged-client compatibility point.
func (fl *fleet) dialCoord(t *testing.T) *railserve.Client {
	t.Helper()
	c, err := fl.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// dial connects a client to the coordinator without test plumbing.
func (fl *fleet) dial() (*railserve.Client, error) {
	conn, err := fl.net.Dial("coord")
	if err != nil {
		return nil, err
	}
	return railserve.NewClient(conn), nil
}

// gridReq wraps spec as a grid-experiment request — the one path a
// grid travels over the wire.
func gridReq(spec scenario.Spec) opusnet.ExpRequestPayload {
	return opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}
}

// gridJSON renders rows as the grid experiment's JSON document: the
// bytes a served grid's RowsJSON must equal.
func gridJSON(tb testing.TB, name string, rows []scenario.Row) string {
	tb.Helper()
	var b bytes.Buffer
	if err := photonrail.GridExperimentResult(name, rows).RenderJSON(&b); err != nil {
		tb.Fatal(err)
	}
	return b.String()
}

// localGridJSON runs grid on a fresh local engine and renders it with
// gridJSON — the ground truth a fleet's answer is compared against.
func localGridJSON(tb testing.TB, grid scenario.Grid) string {
	tb.Helper()
	local, err := photonrail.NewEngine(0).RunGrid(grid)
	if err != nil {
		tb.Fatal(err)
	}
	return gridJSON(tb, grid.Name, local.Rows())
}

// fig8Ref computes the fig8-5d ground truth once for the package: the
// JSON rendering of a single local engine's rows and the simulations
// (misses) it needs.
var fig8RefOnce sync.Once
var fig8RefRows string
var fig8RefMisses uint64

func fig8Ref(t *testing.T) (string, uint64) {
	t.Helper()
	fig8RefOnce.Do(func() {
		en := photonrail.NewEngine(0)
		res, err := en.RunGrid(scenario.Fig8Grid5D())
		if err != nil {
			t.Fatal(err)
		}
		fig8RefRows = gridJSON(t, "fig8-5d", res.Rows())
		fig8RefMisses = en.CacheStats().Misses
	})
	return fig8RefRows, fig8RefMisses
}

// TestFleetGridByteIdentical is the acceptance loopback e2e: the
// 48-cell fig8-5d grid against a 3-backend fleet returns rows
// byte-identical to a single local run, with the cells actually
// distributed (every backend executes at least one) and zero
// duplicated simulation (fleet-wide misses equal one local run's).
func TestFleetGridByteIdentical(t *testing.T) {
	wantRows, wantMisses := fig8Ref(t)
	fl := startFleet(t, 3, 4)
	c := fl.dialCoord(t)

	spec := scenario.SpecOf(scenario.Fig8Grid5D())
	var mu sync.Mutex
	var ticks []int
	run, err := c.RunExperiment(context.Background(), gridReq(spec), func(done, total int) {
		if total != 48 {
			t.Errorf("progress total = %d, want 48", total)
		}
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Grid != "fig8-5d" {
		t.Fatalf("run grid = %q, want fig8-5d", run.Grid)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("fleet rows diverged from the local engine's")
	}

	// Aggregated progress streamed monotonically up to completion.
	mu.Lock()
	if len(ticks) == 0 {
		t.Fatal("no aggregated progress frames")
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("progress ticks not increasing: %v", ticks)
		}
	}
	if last := ticks[len(ticks)-1]; last != 48 {
		t.Errorf("final progress tick = %d, want 48", last)
	}
	mu.Unlock()

	// Cells actually distributed: every backend executed >= 1 cell, and
	// fleet-wide simulations equal a single local run's misses — the
	// workload-key sharding keeps every baseline on exactly one backend.
	var fleetMisses, fleetCells uint64
	for i, s := range fl.backends {
		st := s.Stats()
		if st.CellsExecuted == 0 {
			t.Errorf("backend %d executed no cells", i)
		}
		fleetMisses += st.Misses
		fleetCells += st.CellsExecuted
	}
	if fleetCells != 48 {
		t.Errorf("fleet executed %d cells, want 48 (no duplicated work)", fleetCells)
	}
	if fleetMisses != wantMisses {
		t.Errorf("fleet-wide misses = %d, want %d (a single local run's)", fleetMisses, wantMisses)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ExpsExecuted != 1 || st.ExpsDeduped != 0 {
		t.Errorf("coordinator exps executed/deduped = %d/%d, want 1/0", st.ExpsExecuted, st.ExpsDeduped)
	}
	if len(st.Backends) != 3 {
		t.Fatalf("stats carry %d backends, want 3", len(st.Backends))
	}
	for _, b := range st.Backends {
		if !b.Healthy || b.Cells == 0 {
			t.Errorf("backend %s: healthy=%v cells=%d, want healthy with cells", b.Addr, b.Healthy, b.Cells)
		}
	}
	if st.CellsExecuted != 48 {
		t.Errorf("aggregated cellsExecuted = %d, want 48", st.CellsExecuted)
	}
}

// TestFleetFailoverMidGrid is the acceptance failover e2e: one backend
// is killed mid-grid by the fault harness (at an exact served-frame
// count, so the kill lands between its first progress frame and its
// results), and the client still receives the full, byte-identical
// result — the dead backend's cells re-shard to the survivors.
func TestFleetFailoverMidGrid(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fl := startFleet(t, 3, 4)

	// Pick a backend that will receive cells under the static shard
	// assignment, and kill it after it has served 2 frames — mid-grid,
	// before it can deliver its first batch's result.
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

	c := fl.dialCoord(t)
	run, err := c.RunExperiment(context.Background(), gridReq(scenario.SpecOf(scenario.Fig8Grid5D())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("failover rows diverged from the local engine's")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var deadSeen bool
	for _, b := range st.Backends {
		if b.Addr == fmt.Sprintf("b%d", victim) {
			deadSeen = true
			if b.Healthy {
				t.Errorf("killed backend %s still reported healthy", b.Addr)
			}
			if b.Failures == 0 {
				t.Errorf("killed backend %s reports no failures", b.Addr)
			}
		}
	}
	if !deadSeen {
		t.Fatalf("killed backend missing from stats: %+v", st.Backends)
	}
	// The survivors covered the whole grid between them.
	var fleetCells uint64
	for i, s := range fl.backends {
		if i == victim {
			continue
		}
		fleetCells += s.Stats().CellsExecuted
	}
	if fleetCells < 48-uint64(len(assignment[StaticID(victim)])) {
		t.Errorf("survivors executed %d cells, want >= %d", fleetCells, 48-len(assignment[StaticID(victim)]))
	}
}

// TestFleetAllBackendsDead: killing every backend fails the grid with
// a clear error instead of hanging.
func TestFleetAllBackendsDead(t *testing.T) {
	fl := startFleet(t, 2, 4)
	fl.net.Endpoint("b0").Kill()
	fl.net.Endpoint("b1").Kill()
	c := fl.dialCoord(t)
	_, err := c.RunExperiment(context.Background(), gridReq(scenario.SpecOf(scenario.Grid{Name: "doomed", LatenciesMS: []float64{5}, Iterations: 1})), nil)
	if err == nil || !strings.Contains(err.Error(), "no live backends") {
		t.Fatalf("err = %v, want no-live-backends", err)
	}
}

// TestFleetDroppedProgressFrameHarmless: advisory progress frames may
// vanish (here: the backend's first served frame is dropped by the
// harness); the result must still be complete and correct.
func TestFleetDroppedProgressFrameHarmless(t *testing.T) {
	fl := startFleet(t, 2, 8)
	fl.net.Endpoint("b0").DropFrame(1)
	fl.net.Endpoint("b1").DropFrame(1)
	c := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "droppy",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	})
	run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != localGridJSON(t, grid) {
		t.Fatal("rows diverged under dropped progress frames")
	}
}

// TestFleetHeldBackendStallsThenCompletes: a held backend (frames
// withheld until Release) stalls the fleet result — the coordinator
// must not return a partial grid — and Release lets the identical
// full result through.
func TestFleetHeldBackendStallsThenCompletes(t *testing.T) {
	fl := startFleet(t, 2, 8)
	// Two models x three parallelisms = six workload keys, which the
	// static shard assignment provably splits across both backends (the
	// t.Fatal below pins that; adjust axes if the shard hash changes).
	spec := scenario.Spec{
		Name:   "held",
		Models: []string{"Llama3-8B", "Mixtral-8x7B"},
		Parallelisms: []scenario.Parallelism{
			{TP: 4, DP: 2, PP: 2}, {TP: 2, DP: 2, PP: 2}, {TP: 4, DP: 1, CP: 2, PP: 2},
		},
		Fabrics:     []string{"electrical", "photonic"},
		LatenciesMS: []float64{5},
		Iterations:  1,
	}
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
	held := fl.net.Endpoint("b0")
	held.HoldAtFrame(1)

	c := fl.dialCoord(t)
	type outcome struct {
		run *railserve.ExpRun
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
		res <- outcome{run, err}
	}()

	// The unheld backend finishes its whole share while b0 is gagged —
	// a deterministic wait on the coordinator's cell_complete events
	// (emitted only after a batch's rows are committed, so this is
	// strictly stronger than the old submission-counter poll).
	doneB1 := 0
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		if ev.Type == "cell_complete" && ev.Backend == "b1" {
			doneB1 += ev.Cells
		}
		return doneB1 >= len(s1)
	})
	select {
	case out := <-res:
		t.Fatalf("result delivered while a backend was held: %+v", out)
	default:
	}
	held.Release()
	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.run.RowsJSON != localGridJSON(t, grid) {
		t.Fatal("rows diverged after a hold/release")
	}
}

// TestFleetSingleflightDedup: two concurrent identical grid requests
// coalesce onto ONE fleet execution; both clients get byte-identical
// rows and exactly one is flagged shared.
func TestFleetSingleflightDedup(t *testing.T) {
	fl := startFleet(t, 2, 8)
	// Hold the backends so the requests provably overlap.
	release := fl.holdBackends()
	defer release()
	c1 := fl.dialCoord(t)
	c2 := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "dedup", LatenciesMS: []float64{5}, Iterations: 1})
	type outcome struct {
		run *railserve.ExpRun
		err error
	}
	res := make(chan outcome, 2)
	submit := func(c *railserve.Client) {
		go func() {
			run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
			res <- outcome{run, err}
		}()
	}
	submit(c1)
	// The second joins once the first's execution is registered: the
	// "submitted" event is emitted strictly after the run is visible in
	// the coordinator's run map, so the join is guaranteed, not timed.
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "submitted" })
	submit(c2)
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool { return ev.Type == "deduped" })
	release()
	var runs []*railserve.ExpRun
	for i := 0; i < 2; i++ {
		out := <-res
		if out.err != nil {
			t.Fatal(out.err)
		}
		runs = append(runs, out.run)
	}
	if runs[0].Shared == runs[1].Shared {
		t.Errorf("shared flags = %v/%v, want exactly one joined request", runs[0].Shared, runs[1].Shared)
	}
	if runs[0].RowsJSON != runs[1].RowsJSON {
		t.Fatal("coalesced fleet results diverged")
	}
}

// waitEvent blocks until pred matches over the telemetry event stream
// (retained ring replayed first, then live events) — the deterministic
// replacement for the old waitCoordStats sleep-poll: a successful
// return guarantees the predicate saw a complete event window.
func waitEvent(t *testing.T, tel *telemetry.Set, pred func(telemetry.Event) bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := tel.Events.WaitFor(ctx, pred); err != nil {
		t.Fatalf("event wait: %v", err)
	}
}

// TestFleetExpPathByteIdenticalToDaemon: a grid experiment served by
// the fleet renders byte-identically to the same request served by a
// single raild daemon — the coordinator-side rendering really is the
// daemon's.
func TestFleetExpPathByteIdenticalToDaemon(t *testing.T) {
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "exp-grid",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic, scenario.PhotonicStatic},
		LatenciesMS: []float64{5},
		Iterations:  1,
	})
	req := opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}

	// Reference: one plain raild daemon.
	single, err := railserve.NewServer(railserve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = single.Close(); single.Drain() })
	sc, err := railserve.Dial(single.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sc.Close() })
	want, err := sc.RunExperiment(context.Background(), req, nil)
	if err != nil {
		t.Fatal(err)
	}

	fl := startFleet(t, 3, 4)
	c := fl.dialCoord(t)
	var ticks []int
	var mu sync.Mutex
	got, err := c.RunExperiment(context.Background(), req, func(done, total int) {
		mu.Lock()
		ticks = append(ticks, done)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "grid" || got.Grid != "exp-grid" {
		t.Errorf("exp run = %q / grid %q", got.Name, got.Grid)
	}
	for _, format := range []string{"table", "csv", "json"} {
		g, gerr := got.Render(format)
		w, werr := want.Render(format)
		if gerr != nil || werr != nil {
			t.Fatalf("render %s: %v / %v", format, gerr, werr)
		}
		if g != w {
			t.Errorf("%s rendering diverged:\n got: %q\nwant: %q", format, g, w)
		}
	}
	if got.Rendered != "" || got.RenderedCSV != "" {
		t.Errorf("coordinator's grid exp_result carried rendered %d / renderedCSV %d bytes, want only rowsJSON",
			len(got.Rendered), len(got.RenderedCSV))
	}
	mu.Lock()
	if len(ticks) == 0 {
		t.Error("no exp progress frames from the fleet")
	}
	mu.Unlock()
}

// TestFleetExpCancelPropagates: cancelling the only exp-path waiter
// cancels the fan-out — the client returns promptly while the backends
// are held, and releasing them does not resurrect the request.
func TestFleetExpCancelPropagates(t *testing.T) {
	fl := startFleet(t, 2, 8)
	release := fl.holdBackends()
	defer release()
	c := fl.dialCoord(t)
	spec := scenario.SpecOf(scenario.Grid{Name: "cancel", LatenciesMS: []float64{5}, Iterations: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.RunExperiment(ctx, opusnet.ExpRequestPayload{Name: "grid", Grid: &spec}, nil)
		done <- err
	}()
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "submitted" && ev.Exp == "grid"
	})
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fleet experiment did not return promptly")
	}
	// The connection survives the cancellation (released first: a
	// stats_req waits on the backends' answers).
	release()
	if _, err := c.Stats(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetProxiesNonGridExperiments: a non-grid experiment is proxied
// to a backend and rendered byte-identically to a local run — and
// survives the preferred backend being dead (failover to the next).
func TestFleetProxiesNonGridExperiments(t *testing.T) {
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

	fl := startFleet(t, 2, 8)
	// Kill the rendezvous-preferred backend so the proxy must fail over.
	preferred := fl.coord.proxyOrder("table3")[0].address()
	fl.net.Endpoint(preferred).Kill()
	c := fl.dialCoord(t)
	run, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "table3"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Rendered != want.String() {
		t.Errorf("proxied table3 diverged:\n got: %q\nwant: %q", run.Rendered, want.String())
	}
	// A non-grid result's text is not a function of its rows, so the
	// proxied exp_result still carries all three renderings.
	if run.RenderedCSV == "" || run.RowsJSON == "" {
		t.Errorf("proxied table3 carried renderedCSV %d / rowsJSON %d bytes, want both", len(run.RenderedCSV), len(run.RowsJSON))
	}
}

// TestRetiredGridReqRefused: a client that still sends the retired
// grid_req frame gets the ordinary unsupported-message-type refusal
// from both a raild backend and the coordinator, and its connection
// keeps serving.
func TestRetiredGridReqRefused(t *testing.T) {
	fl := startFleet(t, 1, 8)
	// The frame exactly as an old client encoded it.
	body := []byte(`{"type":"grid_req","seq":1,"spec":{"name":"fig8-5d"}}`)
	frame := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	for _, endpoint := range []string{"b0", "coord"} {
		conn, err := fl.net.Dial(endpoint)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		reply, err := opusnet.ReadMessage(conn)
		if err != nil {
			t.Fatalf("%s: %v", endpoint, err)
		}
		if reply.Type != opusnet.MsgErr || reply.Seq != 1 || !strings.Contains(reply.Error, "unsupported message type") {
			t.Errorf("%s: reply = %+v, want an unsupported-message-type error", endpoint, reply)
		}
		if err := opusnet.WriteMessage(conn, &opusnet.Message{Type: opusnet.MsgStatsReq, Seq: 2}); err != nil {
			t.Fatal(err)
		}
		if reply, err := opusnet.ReadMessage(conn); err != nil || reply.Type != opusnet.MsgStatsResp || reply.Seq != 2 {
			t.Errorf("%s: stats after the refusal = %+v, %v", endpoint, reply, err)
		}
	}
}

// TestFleetRejectsBadRequests: the coordinator refuses what one daemon
// would refuse — before any backend sees the request.
func TestFleetRejectsBadRequests(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)
	if _, err := c.RunExperiment(context.Background(), gridReq(scenario.Spec{Models: []string{"GPT-9"}}), nil); err == nil ||
		!strings.Contains(err.Error(), "unknown model") {
		t.Errorf("bad model error = %v", err)
	}
	bomb := scenario.SpecOf(scenario.Grid{
		Name:         "bomb",
		Parallelisms: make([]scenario.Parallelism, 50_000),
		LatenciesMS:  make([]float64, 50_000),
		Fabrics:      []scenario.FabricKind{scenario.Photonic},
	})
	if _, err := c.RunExperiment(context.Background(), gridReq(bomb), nil); err == nil || !strings.Contains(err.Error(), "request cap") {
		t.Errorf("cross-product bomb error = %v", err)
	}
	if _, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "fig99"}, nil); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment error = %v", err)
	}
	spec := scenario.SpecOf(scenario.Grid{Name: "g"})
	if _, err := c.RunExperiment(context.Background(), opusnet.ExpRequestPayload{Name: "table1", Grid: &spec}, nil); err == nil ||
		!strings.Contains(err.Error(), "does not take a grid") {
		t.Errorf("grid-on-table error = %v", err)
	}
	// No backend was ever touched.
	for i, s := range fl.backends {
		if st := s.Stats(); st.CellsExecuted != 0 || st.Misses != 0 {
			t.Errorf("backend %d stats = %+v, want untouched", i, st)
		}
	}
}
