package railfleet

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"photonrail/internal/faultnet"
	"photonrail/internal/opusnet"
	"photonrail/internal/railctl"
	"photonrail/internal/railserve"
	"photonrail/internal/scenario"
	"photonrail/internal/telemetry"
)

// elasticHeartbeat is the agent cadence in the elastic tests: fast
// enough that joins and drain acknowledgements land within a few
// milliseconds of wall time.
const elasticHeartbeat = 20 * time.Millisecond

// elasticFleet is an in-process coordinator whose fleet is entirely
// self-registered: backend servers listen on faultnet endpoints
// "b0".."bN-1" and railctl agents register them as members "n0".."nN-1"
// over the "coord" endpoint — no static -backends list anywhere.
type elasticFleet struct {
	t     *testing.T
	net   *faultnet.Network
	coord *Coordinator

	mu       sync.Mutex
	backends []*railserve.Server
	agents   []*railctl.Agent
}

func startElasticFleet(t *testing.T, inFlight int, ttl time.Duration) *elasticFleet {
	t.Helper()
	fn := faultnet.New()
	coord, err := New(Config{
		Listener:          fn.Listen("coord"),
		AllowRegistration: true,
		HeartbeatTTL:      ttl,
		InFlight:          inFlight,
		Dial:              fn.Dial,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := &elasticFleet{t: t, net: fn, coord: coord}
	t.Cleanup(fl.stop)
	return fl
}

func (fl *elasticFleet) stop() {
	fl.mu.Lock()
	agents := fl.agents
	backends := fl.backends
	fl.mu.Unlock()
	for _, a := range agents {
		a.Close() // stop heartbeats first, so nothing logs after the test
	}
	_ = fl.coord.Close()
	fl.coord.Drain()
	for _, s := range backends {
		_ = s.Close()
		s.Drain()
	}
	fl.net.Close()
}

// addMember starts backend i (endpoint "b<i>") and registers it as
// member "n<i>" with the given advertised capacity, returning once the
// coordinator has observed the join — so a caller may rely on the next
// wave seeing the member.
func (fl *elasticFleet) addMember(i, capacity int) (*railserve.Server, *railctl.Agent) {
	fl.t.Helper()
	name := fmt.Sprintf("b%d", i)
	id := fmt.Sprintf("n%d", i)
	s, err := railserve.NewServer(railserve.Config{Listener: fl.net.Listen(name), Workers: 2, Logf: fl.t.Logf})
	if err != nil {
		fl.t.Fatal(err)
	}
	a, err := railctl.StartAgent(railctl.AgentConfig{
		Coordinator: "coord",
		Dial:        fl.net.Dial,
		ID:          id,
		Addr:        name,
		Capacity:    capacity,
		Interval:    elasticHeartbeat,
		Stats:       func() opusnet.CacheStatsPayload { return s.Stats() },
		Logf:        fl.t.Logf,
	})
	if err != nil {
		_ = s.Close()
		fl.t.Fatal(err)
	}
	fl.mu.Lock()
	fl.backends = append(fl.backends, s)
	fl.agents = append(fl.agents, a)
	fl.mu.Unlock()
	waitEvent(fl.t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "join" && ev.Member == id
	})
	return s, a
}

// agent returns member i's agent.
func (fl *elasticFleet) agent(i int) *railctl.Agent {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.agents[i]
}

// dialCoord connects a railserve client to the coordinator.
func (fl *elasticFleet) dialCoord() *railserve.Client {
	fl.t.Helper()
	conn, err := fl.net.Dial("coord")
	if err != nil {
		fl.t.Fatal(err)
	}
	c := railserve.NewClient(conn)
	fl.t.Cleanup(func() { _ = c.Close() })
	return c
}

// waitFrames polls until the endpoint has pumped at least n frames.
// Held frames count — the pump increments before withholding — so this
// detects "the backend produced its first reply frame" even while a
// HoldAtFrame gag keeps that frame from the coordinator.
func waitFrames(t *testing.T, ep *faultnet.Endpoint, n int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for ep.Frames() < n {
		if time.Now().After(deadline) {
			t.Fatalf("endpoint never pumped %d frames", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// coordCounters renders the coordinator's metrics and parses them into
// sample values, so tests can assert on counter and gauge series.
func coordCounters(t *testing.T, f *Coordinator) map[string]float64 {
	t.Helper()
	var b strings.Builder
	f.Telemetry().Metrics.Render(&b)
	samples, err := telemetry.ParseSamples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

// TestElasticFleetJoinDrainMidRequest is the PR's acceptance e2e: a
// three-member self-registered fleet serves the 48-cell fig8-5d grid
// while one member gracefully drains mid-request — finishing the batch
// it holds, handing its unstarted cells to the next wave — and a
// fourth member joins mid-request and picks those cells up. The merged
// rows are byte-identical to a single local engine's, no simulation is
// duplicated fleet-wide, the joiner executes cells, and the drain
// trips zero failovers.
func TestElasticFleetJoinDrainMidRequest(t *testing.T) {
	wantRows, wantMisses := fig8Ref(t)
	// inFlight 8 makes batch boundaries workload-closed for fig8-5d:
	// every workload expands to exactly 8 consecutive cells (electrical
	// + static + 3 photonic latencies + 3 provisioned latencies), and a
	// member's share is a concatenation of whole workloads — so the
	// drainer's executed-batch/handoff split never splits a workload and
	// the no-duplicated-simulation property survives the handoff.
	const inFlight = 8
	fl := startElasticFleet(t, inFlight, 5*time.Second)
	for i := 0; i < 3; i++ {
		fl.addMember(i, 2)
	}

	// Predict the wave-0 shard to pick the drainer: a member holding
	// more than one batch, so a drain between its batches leaves a
	// handoff remainder.
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	targets := []Target{{ID: "n0", Weight: 2}, {ID: "n1", Weight: 2}, {ID: "n2", Weight: 2}}
	assignment := AssignWeighted(cells, all, targets)
	drainer := ""
	for _, tg := range targets {
		if len(assignment[tg.ID]) > inFlight {
			drainer = tg.ID
			break
		}
	}
	if drainer == "" {
		t.Fatalf("no member holds more than one batch (shares %d/%d/%d); adjust inFlight",
			len(assignment["n0"]), len(assignment["n1"]), len(assignment["n2"]))
	}
	share := assignment[drainer]
	batch1, handoff := share[:inFlight], share[inFlight:]
	if WorkloadKey(cells[batch1[len(batch1)-1]]) == WorkloadKey(cells[handoff[0]]) {
		t.Fatal("batch boundary splits a workload; pick an inFlight that is a multiple of the per-workload cell count")
	}
	// The joiner advertises overwhelming capacity, so it provably wins
	// every handed-off workload key whatever subset of the old members
	// is assignable in the handoff wave (removing competitors cannot
	// dethrone a rendezvous winner).
	joiner := Target{ID: "n3", Weight: 1 << 20}
	wave1 := []Target{joiner}
	for _, tg := range targets {
		if tg.ID != drainer {
			wave1 = append(wave1, tg)
		}
	}
	for _, idx := range handoff {
		if owner := ownerOf(WorkloadKey(cells[idx]), wave1); owner != joiner.ID {
			t.Fatalf("handoff cell %d re-shards to %s, not the joiner; raise the joiner's capacity", idx, owner)
		}
	}

	drainerIdx := int(drainer[1] - '0')
	held := fl.net.Endpoint(fmt.Sprintf("b%d", drainerIdx))
	held.HoldAtFrame(1)

	c := fl.dialCoord()
	type outcome struct {
		run *railserve.ExpRun
		err error
	}
	res := make(chan outcome, 1)
	go func() {
		run, err := c.RunExperiment(context.Background(), gridReq(scenario.SpecOf(scenario.Fig8Grid5D())), nil)
		res <- outcome{run, err}
	}()

	// The drainer's first batch is provably in flight once its endpoint
	// pumps a frame (held, so nothing reaches the coordinator yet): the
	// grid is mid-request with work submitted to the drainer.
	waitFrames(t, held, 1)

	// Mid-request join: a fourth daemon registers itself. addMember
	// returns only after the coordinator observed the join.
	joinSrv, _ := fl.addMember(3, joiner.Weight)

	// Mid-request drain: Drain returns only after the coordinator acked,
	// i.e. the registry transition is applied — so when the held batch
	// completes, the drainer's next batch check provably observes it.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := fl.agent(drainerIdx).Drain(dctx, "test drain"); err != nil {
		t.Fatal(err)
	}
	held.Release()

	out := <-res
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.run.RowsJSON != wantRows {
		t.Fatal("rows diverged from the local engine's across the join+drain")
	}

	// The graceful handoff happened, with the member identity attached.
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "drain_handoff" && ev.Member == drainer && ev.Cells == len(handoff)
	})

	// The drainer executed exactly the batch it held; the joiner
	// executed exactly the handoff; fleet-wide the grid ran once.
	fl.mu.Lock()
	drainSrv := fl.backends[drainerIdx]
	members := append([]*railserve.Server(nil), fl.backends...)
	fl.mu.Unlock()
	if got := drainSrv.Stats().CellsExecuted; got != inFlight {
		t.Errorf("drainer executed %d cells, want its held batch of %d", got, inFlight)
	}
	if got := joinSrv.Stats().CellsExecuted; got != uint64(len(handoff)) {
		t.Errorf("joiner executed %d cells, want the %d handed off", got, len(handoff))
	}
	var fleetCells, fleetMisses uint64
	for _, s := range members {
		st := s.Stats()
		fleetCells += st.CellsExecuted
		fleetMisses += st.Misses
	}
	if fleetCells != 48 {
		t.Errorf("fleet executed %d cells, want 48 (no duplicated or lost work)", fleetCells)
	}
	if fleetMisses != wantMisses {
		t.Errorf("fleet-wide misses = %d, want a single local run's %d (zero duplicated simulation)", fleetMisses, wantMisses)
	}

	// The drain was graceful: zero failover events, zero on the counter.
	for _, ev := range fl.coord.Telemetry().Events.Snapshot() {
		if ev.Type == "failover" {
			t.Errorf("failover event during a graceful drain: %+v", ev)
		}
	}
	samples := coordCounters(t, fl.coord)
	if v := samples["railfleet_failovers_total"]; v != 0 {
		t.Errorf("railfleet_failovers_total = %g, want 0", v)
	}
	if v := samples[`railfleet_members{state="healthy"}`]; v != 3 {
		t.Errorf("healthy members gauge = %g, want 3 (two originals + joiner)", v)
	}
	if v := samples[`railfleet_members{state="draining"}`]; v != 1 {
		t.Errorf("draining members gauge = %g, want 1", v)
	}

	// The stats_resp membership view carries the same picture to any
	// railclient -daemon-stats invocation.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 4 {
		t.Fatalf("membership view has %d entries, want 4", len(st.Backends))
	}
	for _, b := range st.Backends {
		if b.Static {
			t.Errorf("member %s reported static in an all-dynamic fleet", b.ID)
		}
		if b.LastHeartbeatAgeMS < 0 {
			t.Errorf("member %s heartbeat age %dms is negative", b.ID, b.LastHeartbeatAgeMS)
		}
		switch b.ID {
		case drainer:
			if b.State != string(railctl.StateDraining) || b.Healthy {
				t.Errorf("drainer view = state %q healthy %v, want draining/unhealthy", b.State, b.Healthy)
			}
		case joiner.ID:
			if b.State != string(railctl.StateHealthy) || !b.Healthy || b.Capacity != joiner.Weight {
				t.Errorf("joiner view = state %q healthy %v capacity %d, want healthy with capacity %d",
					b.State, b.Healthy, b.Capacity, joiner.Weight)
			}
			if b.Cells != uint64(len(handoff)) {
				t.Errorf("joiner view credits %d cells, want %d", b.Cells, len(handoff))
			}
		}
	}
}

// TestElasticMemberKilledMidGridFailsOver: a registered member whose
// serving endpoint dies mid-grid (its control-plane heartbeats still
// flowing) has its cells re-sharded to the survivor — the failover
// contract holds for dynamic members, with the member identity on the
// event — and once its heartbeats do stop, the registry marks it dead
// and emits the leave.
func TestElasticMemberKilledMidGridFailsOver(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fl := startElasticFleet(t, 4, time.Second)
	var servers [2]*railserve.Server
	for i := range servers {
		servers[i], _ = fl.addMember(i, 2)
	}

	// Kill a member's serving endpoint once it holds cells and before
	// it delivers any (see killMidGrid): a mid-grid death at a
	// reproducible point.
	targets := []Target{{ID: "n0", Weight: 2}, {ID: "n1", Weight: 2}}
	victimIdx, _ := firstAssigned(t, targets)
	victim := targets[victimIdx].ID
	c := fl.dialCoord()
	run, err := killMidGrid(t, fl.net, fmt.Sprintf("b%d", victimIdx), servers[victimIdx], c)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("failover rows diverged from the local engine's")
	}
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "failover" && ev.Member == victim
	})

	// Stop the victim's control plane; with nothing refreshing its
	// heartbeat the registry marks it dead on the next read.
	fl.agent(victimIdx).Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		state := ""
		for _, b := range st.Backends {
			if b.ID == victim {
				state = b.State
			}
		}
		if state == string(railctl.StateDead) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never marked dead: state %q", state)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitEvent(t, fl.coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "leave" && ev.Member == victim && ev.Reason == "heartbeat timeout"
	})
}

// TestElasticFleetByteIdenticalAcrossMembershipHistory: whatever
// membership history a fleet goes through — seeded-random joins and
// drains between requests — every grid it serves comes back
// byte-identical to a single local engine's rows.
func TestElasticFleetByteIdenticalAcrossMembershipHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("membership-history property is not a -short test")
	}
	spec := scenario.SpecOf(scenario.Grid{
		Name:        "history",
		Fabrics:     []scenario.FabricKind{scenario.Electrical, scenario.Photonic},
		LatenciesMS: []float64{5, 20},
		Iterations:  1,
	})
	grid, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want := localGridJSON(t, grid)

	fl := startElasticFleet(t, 4, 5*time.Second)
	fl.addMember(0, 1)
	fl.addMember(1, 2)
	rng := rand.New(rand.NewSource(11))
	healthy := []int{0, 1}
	next := 2
	c := fl.dialCoord()
	ctx := context.Background()
	for round := 0; round < 4; round++ {
		run, err := c.RunExperiment(context.Background(), gridReq(spec), nil)
		if err != nil {
			t.Fatalf("round %d (healthy members %v): %v", round, healthy, err)
		}
		if run.RowsJSON != want {
			t.Fatalf("round %d (healthy members %v): rows diverged from local", round, healthy)
		}
		// Mutate membership for the next round: drain a random member
		// (keeping at least one) or join a fresh one.
		if len(healthy) > 1 && rng.Intn(2) == 0 {
			pick := rng.Intn(len(healthy))
			idx := healthy[pick]
			if err := fl.agent(idx).Drain(ctx, "history"); err != nil {
				t.Fatal(err)
			}
			healthy = append(healthy[:pick], healthy[pick+1:]...)
		} else {
			fl.addMember(next, 1+rng.Intn(4))
			healthy = append(healthy, next)
			next++
		}
	}
}

// TestElasticHeartbeatStatsAndDeath drives the control plane by hand —
// raw protocol frames and an injected clock — and pins what the e2e
// cannot deterministically: heartbeat-piggybacked stats are what the
// coordinator aggregates (it never dials a dynamic member; the
// advertised address here does not even exist), a TTL-stale member
// dies, is refused work, and a late heartbeat revives it.
func TestElasticHeartbeatStatsAndDeath(t *testing.T) {
	fn := faultnet.New()
	t.Cleanup(fn.Close)
	var cmu sync.Mutex
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time {
		cmu.Lock()
		defer cmu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		cmu.Lock()
		now = now.Add(d)
		cmu.Unlock()
	}
	coord, err := New(Config{
		Listener:          fn.Listen("coord"),
		AllowRegistration: true,
		HeartbeatTTL:      time.Second,
		Now:               clock,
		Dial:              fn.Dial,
		Logf:              t.Logf,
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
	ctx := context.Background()

	if err := c.FleetRegister(ctx, opusnet.FleetRegisterPayload{ID: "m1", Addr: "nowhere:1", Capacity: 3}); err != nil {
		t.Fatal(err)
	}
	hb := opusnet.CacheStatsPayload{Misses: 7, CellsExecuted: 5, BuildMisses: 2, InFlight: 1}
	if err := c.FleetHeartbeat(ctx, opusnet.HeartbeatPayload{ID: "m1", Capacity: 3, Stats: &hb}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 7 || st.CellsExecuted != 5 || st.BuildMisses != 2 || st.InFlight != 1 {
		t.Errorf("aggregates = misses %d cells %d buildMisses %d inFlight %d, want the piggybacked 7/5/2/1",
			st.Misses, st.CellsExecuted, st.BuildMisses, st.InFlight)
	}
	if len(st.Backends) != 1 {
		t.Fatalf("membership view has %d entries, want 1", len(st.Backends))
	}
	m := st.Backends[0]
	if m.ID != "m1" || m.State != string(railctl.StateHealthy) || !m.Healthy || m.Capacity != 3 || m.Static {
		t.Errorf("member view = %+v, want healthy dynamic m1 with capacity 3", m)
	}
	if m.LastHeartbeatAgeMS != 0 {
		t.Errorf("heartbeat age = %dms under a frozen clock, want 0", m.LastHeartbeatAgeMS)
	}

	// A heartbeat for an identity the coordinator does not know is
	// refused — the agent's cue to re-register; a drain for one acks —
	// departure must be idempotent.
	if err := c.FleetHeartbeat(ctx, opusnet.HeartbeatPayload{ID: "ghost", Capacity: 1}); err == nil ||
		!strings.Contains(err.Error(), "unknown member") {
		t.Errorf("ghost heartbeat error = %v, want unknown-member refusal", err)
	}
	if err := c.FleetDrain(ctx, opusnet.DrainPayload{ID: "ghost", Reason: "idempotent"}); err != nil {
		t.Errorf("ghost drain = %v, want ack", err)
	}

	// Past the TTL the member is dead: reported so, contributing its
	// retained counters with the in-flight gauge zeroed, and assigned
	// no work.
	advance(1500 * time.Millisecond)
	st2, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Backends) != 1 || st2.Backends[0].State != string(railctl.StateDead) || st2.Backends[0].Healthy {
		t.Errorf("post-TTL view = %+v, want dead/unhealthy", st2.Backends)
	}
	if st2.Misses != 7 || st2.InFlight != 0 {
		t.Errorf("post-TTL aggregates = misses %d inFlight %d, want retained 7 with in-flight zeroed", st2.Misses, st2.InFlight)
	}
	waitEvent(t, coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "leave" && ev.Member == "m1" && ev.Reason == "heartbeat timeout"
	})
	spec := scenario.SpecOf(scenario.Grid{Name: "refused", LatenciesMS: []float64{5}, Iterations: 1})
	if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err == nil || !strings.Contains(err.Error(), "no live backends") {
		t.Errorf("grid on a dead fleet = %v, want no-live-backends", err)
	}

	// A late heartbeat revives the member (the agent outlived a
	// too-tight TTL), emitting a rejoin.
	if err := c.FleetHeartbeat(ctx, opusnet.HeartbeatPayload{ID: "m1", Capacity: 3}); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "join" && ev.Member == "m1" && ev.Reason == "heartbeat revival"
	})
	st3, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Backends[0].State != string(railctl.StateHealthy) || !st3.Backends[0].Healthy {
		t.Errorf("post-revival view = %+v, want healthy", st3.Backends[0])
	}
}

// TestStaticFleetRefusesRegistration: a static -backends coordinator
// has no registry; control-plane frames are refused with a telling
// error, and the static serving path is untouched by the attempts.
func TestStaticFleetRefusesRegistration(t *testing.T) {
	fl := startFleet(t, 2, 8)
	c := fl.dialCoord(t)
	ctx := context.Background()
	if err := c.FleetRegister(ctx, opusnet.FleetRegisterPayload{ID: "m1", Addr: "b0", Capacity: 1}); err == nil ||
		!strings.Contains(err.Error(), "registration disabled") {
		t.Errorf("register on a static fleet = %v, want registration-disabled refusal", err)
	}
	if err := c.FleetHeartbeat(ctx, opusnet.HeartbeatPayload{ID: "m1", Capacity: 1}); err == nil ||
		!strings.Contains(err.Error(), "registration disabled") {
		t.Errorf("heartbeat on a static fleet = %v, want registration-disabled refusal", err)
	}
	if err := c.FleetDrain(ctx, opusnet.DrainPayload{ID: "m1"}); err == nil ||
		!strings.Contains(err.Error(), "registration disabled") {
		t.Errorf("drain on a static fleet = %v, want registration-disabled refusal", err)
	}
	spec := scenario.SpecOf(scenario.Grid{Name: "still-static", LatenciesMS: []float64{5}, Iterations: 1})
	if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
		t.Fatalf("static fleet stopped serving after refused registrations: %v", err)
	}
}

// TestDeadStaticCostsNoDialsPerRequest is the regression test for the
// per-request re-probe of failed backends: once a static backend fails
// a probe it is marked dead and later requests skip it outright — with
// the background probe loop parked (an hour-long TTL puts its first
// tick 20 minutes out), a down host costs exactly one dial attempt
// ever, not one per request.
func TestDeadStaticCostsNoDialsPerRequest(t *testing.T) {
	fn := faultnet.New()
	t.Cleanup(fn.Close)
	s0, err := railserve.NewServer(railserve.Config{Listener: fn.Listen("b0"), Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s0.Close(); s0.Drain() })
	var dmu sync.Mutex
	dials := map[string]int{}
	dial := func(addr string) (net.Conn, error) {
		dmu.Lock()
		dials[addr]++
		dmu.Unlock()
		if addr == "b1" {
			return nil, fmt.Errorf("connection refused")
		}
		return fn.Dial(addr)
	}
	coord, err := New(Config{
		Listener:     fn.Listen("coord"),
		Backends:     []string{"b0", "b1"},
		InFlight:     8,
		Dial:         dial,
		HeartbeatTTL: time.Hour, // isolate the request path: no background revival
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

	dialsTo := func(addr string) int {
		dmu.Lock()
		defer dmu.Unlock()
		return dials[addr]
	}
	for i := 0; i < 3; i++ {
		spec := scenario.SpecOf(scenario.Grid{Name: fmt.Sprintf("probe-%d", i), LatenciesMS: []float64{5}, Iterations: 1})
		if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if n := dialsTo("b1"); n != 1 {
			t.Fatalf("after request %d the dead static has %d dial attempts, want exactly 1 (the first probe)", i, n)
		}
	}
	// The membership view reports it dead — without dialing it.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var sawDead bool
	for _, b := range st.Backends {
		if b.ID == StaticID(1) {
			sawDead = true
			if b.State != string(railctl.StateDead) || b.Healthy {
				t.Errorf("dead static view = state %q healthy %v, want dead/unhealthy", b.State, b.Healthy)
			}
		}
	}
	if !sawDead {
		t.Fatal("dead static missing from the membership view")
	}
	if n := dialsTo("b1"); n != 1 {
		t.Fatalf("stats dialed the dead static (%d attempts)", n)
	}
}

// TestReprobeLoopRevivesDeadStatic: the background probe loop — not
// any request — brings a recovered static backend back: its revival
// join fires with no request in flight, and the next grid shards onto
// it.
func TestReprobeLoopRevivesDeadStatic(t *testing.T) {
	fn := faultnet.New()
	t.Cleanup(fn.Close)
	var servers []*railserve.Server
	for i := 0; i < 2; i++ {
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(fmt.Sprintf("b%d", i)), Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		t.Cleanup(func() { _ = s.Close(); s.Drain() })
	}
	var dmu sync.Mutex
	down := true
	dial := func(addr string) (net.Conn, error) {
		dmu.Lock()
		refused := addr == "b1" && down
		dmu.Unlock()
		if refused {
			return nil, fmt.Errorf("connection refused")
		}
		return fn.Dial(addr)
	}
	coord, err := New(Config{
		Listener:     fn.Listen("coord"),
		Backends:     []string{"b0", "b1"},
		InFlight:     8,
		Dial:         dial,
		HeartbeatTTL: 30 * time.Millisecond, // probes every 10ms
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

	spec := scenario.SpecOf(scenario.Grid{Name: "pre-revival", LatenciesMS: []float64{5}, Iterations: 1})
	if _, err := c.RunExperiment(context.Background(), gridReq(spec), nil); err != nil {
		t.Fatal(err)
	}
	// b1 failed its probe and is dead. Bring it back: the loop revives
	// it with no request in flight.
	dmu.Lock()
	down = false
	dmu.Unlock()
	// New already emitted a registration join for every static, and
	// WaitFor replays history: match the revival by its reason.
	waitEvent(t, coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "join" && ev.Member == StaticID(1) && ev.Reason == "probe revival"
	})
	// The revived backend owns fig8-5d cells again (guarded by the same
	// static assignment the other e2e tests predict) and executes them.
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	if len(AssignWeighted(cells, all, staticTargets(0, 1))[StaticID(1)]) == 0 {
		t.Fatal("static position 1 owns no fig8-5d cells; pick a grid that splits")
	}
	if _, err := c.RunExperiment(context.Background(), gridReq(scenario.SpecOf(scenario.Fig8Grid5D())), nil); err != nil {
		t.Fatal(err)
	}
	if got := servers[1].Stats().CellsExecuted; got == 0 {
		t.Error("revived static executed no cells")
	}
}

// TestMixedFleetReservesStaticIdentities is the regression test for
// static-identity impersonation: a coordinator with static -backends
// that also accepts registrations refuses fleet_register, heartbeat and
// drain frames naming a static member's identity, so no registered
// daemon can take over a static's shard. fig8-5d then splits across
// the two statics exactly as the weight-1 shard predicts, the would-be
// impostor runs nothing, and the membership view lists each identity
// once.
func TestMixedFleetReservesStaticIdentities(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fn := faultnet.New()
	t.Cleanup(fn.Close)
	var servers []*railserve.Server // b0, b1 static; b2 the would-be impostor
	for i := 0; i < 3; i++ {
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(fmt.Sprintf("b%d", i)), Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		t.Cleanup(func() { _ = s.Close(); s.Drain() })
	}
	coord, err := New(Config{
		Listener:          fn.Listen("coord"),
		Backends:          []string{"b0", "b1"},
		AllowRegistration: true,
		InFlight:          8,
		Dial:              fn.Dial,
		Logf:              t.Logf,
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

	ctx := context.Background()
	refused := func(frame, id string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "reserved") || !strings.Contains(err.Error(), `"`+id+`"`) {
			t.Errorf("%s naming static %s = %v, want a refusal naming the reserved identity", frame, id, err)
		}
	}
	refused("fleet_register", StaticID(0), c.FleetRegister(ctx, opusnet.FleetRegisterPayload{ID: StaticID(0), Addr: "b2", Capacity: 1}))
	refused("heartbeat", StaticID(0), c.FleetHeartbeat(ctx, opusnet.HeartbeatPayload{ID: StaticID(0), Capacity: 1}))
	refused("drain", StaticID(1), c.FleetDrain(ctx, opusnet.DrainPayload{ID: StaticID(1), Reason: "impostor"}))

	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	assignment := AssignWeighted(cells, all, staticTargets(0, 1))
	run, err := c.RunExperiment(ctx, gridReq(scenario.SpecOf(scenario.Fig8Grid5D())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("rows diverged from the local engine's")
	}
	for i, want := range []int{len(assignment[StaticID(0)]), len(assignment[StaticID(1)]), 0} {
		if got := servers[i].Stats().CellsExecuted; got != uint64(want) {
			t.Errorf("b%d executed %d of %d cells, want %d (the weight-1 static shard)", i, got, len(cells), want)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{}
	for _, b := range st.Backends {
		listed[b.ID]++
	}
	if len(st.Backends) != 2 || listed[StaticID(0)] != 1 || listed[StaticID(1)] != 1 {
		t.Errorf("membership view = %+v, want s0 and s1 listed once each", st.Backends)
	}
}

// TestMixedFleetEndToEnd runs static and registered members in one
// coordinator: a static whose dial is refused dies on the first grid
// and the probe loop revives it once the dial opens; fig8-5d then
// shards across all four members byte-identically; the membership view
// tells the kinds apart; and a registered member's drain hands off
// without a single failover.
func TestMixedFleetEndToEnd(t *testing.T) {
	wantRows, _ := fig8Ref(t)
	fn := faultnet.New()
	var statics []*railserve.Server
	for i := 0; i < 2; i++ {
		s, err := railserve.NewServer(railserve.Config{Listener: fn.Listen(fmt.Sprintf("b%d", i)), Workers: 2, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		statics = append(statics, s)
	}
	var dmu sync.Mutex
	down := true
	dial := func(addr string) (net.Conn, error) {
		dmu.Lock()
		refused := addr == "b1" && down
		dmu.Unlock()
		if refused {
			return nil, fmt.Errorf("connection refused")
		}
		return fn.Dial(addr)
	}
	coord, err := New(Config{
		Listener:          fn.Listen("coord"),
		Backends:          []string{"b0", "b1"},
		AllowRegistration: true,
		HeartbeatTTL:      time.Second, // statics re-probed every ~333ms
		InFlight:          8,
		Dial:              dial,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl := &elasticFleet{t: t, net: fn, coord: coord, backends: statics}
	t.Cleanup(fl.stop)
	fl.addMember(2, 2) // n2 on b2
	fl.addMember(3, 2) // n3 on b3
	c := fl.dialCoord()
	ctx := context.Background()

	// b1's dial is refused: the first grid dials it before assigning it
	// anything, it dies, and the grid completes on the other three.
	pre := scenario.Grid{Name: "pre-revival", LatenciesMS: []float64{5}, Iterations: 1}
	run, err := c.RunExperiment(ctx, gridReq(scenario.SpecOf(pre)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != localGridJSON(t, pre) {
		t.Fatal("pre-revival rows diverged from the local engine's")
	}
	waitEvent(t, coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "leave" && ev.Member == StaticID(1) && ev.Reason == "unreachable"
	})
	if got := statics[1].Stats().CellsExecuted; got != 0 {
		t.Fatalf("refused static executed %d cells", got)
	}

	// The dial opens: the probe loop — no request — revives it.
	dmu.Lock()
	down = false
	dmu.Unlock()
	waitEvent(t, coord.Telemetry(), func(ev telemetry.Event) bool {
		return ev.Type == "join" && ev.Member == StaticID(1) && ev.Reason == "probe revival"
	})

	// fig8-5d shards onto all four members, the revived static included.
	cells := scenario.Fig8Grid5D().Expand()
	all := make([]int, len(cells))
	for i := range all {
		all[i] = i
	}
	targets := append(staticTargets(0, 1), Target{ID: "n2", Weight: 2}, Target{ID: "n3", Weight: 2})
	assignment := AssignWeighted(cells, all, targets)
	for _, tg := range targets {
		if len(assignment[tg.ID]) == 0 {
			t.Fatalf("member %s owns no fig8-5d cells; pick capacities that split", tg.ID)
		}
	}
	run, err = c.RunExperiment(ctx, gridReq(scenario.SpecOf(scenario.Fig8Grid5D())), nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != wantRows {
		t.Fatal("fig8-5d rows diverged from the local engine's")
	}
	fl.mu.Lock()
	servers := append([]*railserve.Server(nil), fl.backends...)
	fl.mu.Unlock()
	for i, s := range servers {
		if s.Stats().CellsExecuted == 0 {
			t.Errorf("b%d executed no cells", i)
		}
	}

	// One membership view, kinds told apart.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Backends) != 4 {
		t.Fatalf("membership view lists %d members, want 4: %+v", len(st.Backends), st.Backends)
	}
	for _, b := range st.Backends {
		static := b.ID == StaticID(0) || b.ID == StaticID(1)
		if b.Static != static {
			t.Errorf("member %s: Static = %v, want %v", b.ID, b.Static, static)
		}
		if b.Static && b.LastHeartbeatAgeMS != 0 {
			t.Errorf("static %s reports a heartbeat age (%dms)", b.ID, b.LastHeartbeatAgeMS)
		}
		if !b.Healthy || b.State != string(railctl.StateHealthy) || b.Cells == 0 {
			t.Errorf("member %s = %+v, want healthy with cells", b.ID, b)
		}
	}

	// n3 drains: the next grid — fig8-5d's workloads at a new latency,
	// so n3 would own a share — runs without it and without a failover.
	dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
	defer dcancel()
	if err := fl.agent(1).Drain(dctx, "mixed drain"); err != nil {
		t.Fatal(err)
	}
	before := servers[3].Stats().CellsExecuted
	post := scenario.Fig8Grid5D()
	post.Name, post.LatenciesMS = "post-drain", []float64{7}
	if run, err = c.RunExperiment(ctx, gridReq(scenario.SpecOf(post)), nil); err != nil {
		t.Fatal(err)
	}
	if run.RowsJSON != localGridJSON(t, post) {
		t.Fatal("post-drain rows diverged from the local engine's")
	}
	if got := servers[3].Stats().CellsExecuted; got != before {
		t.Errorf("drained member executed %d new cells", got-before)
	}
	if n := coordCounters(t, coord)["railfleet_failovers_total"]; n != 0 {
		t.Errorf("failovers = %v, want 0 (a refused static dial and a drain are not failovers)", n)
	}
}
