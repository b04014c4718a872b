package opus

import (
	"testing"

	"photonrail/internal/collective"
	"photonrail/internal/parallelism"
	"photonrail/internal/sim"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

const ms = units.Millisecond

// rig is a 4-node, 4-GPU/node photonic cluster with 2-port NICs and the
// §3.1 rail-0 groups: FSDP rings {n0,n1} and {n2,n3}, PP rings {n0,n2}
// and {n1,n3}, numbered 0 to 3 in that order and registered in the
// controller's circuit table.
type rig struct {
	engine *sim.Engine
	plan   PortPlan
	ctrl   *Controller
	fsdp0  *collective.Group // GPUs 0, 4 (nodes 0, 1)
	fsdp1  *collective.Group // GPUs 8, 12 (nodes 2, 3)
	pp0    *collective.Group // GPUs 0, 8 (nodes 0, 2)
	pp1    *collective.Group // GPUs 4, 12 (nodes 1, 3)
}

func newRig(t *testing.T, latency units.Duration) *rig {
	t.Helper()
	cl := topo.MustNew(topo.Config{NumNodes: 4, GPUsPerNode: 4})
	engine := sim.NewEngine()
	plan := PortPlan{Cluster: cl, PortsPerGPU: 2}
	r := &rig{
		engine: engine,
		plan:   plan,
		fsdp0:  &collective.Group{ID: 0, Name: "fsdp.s0.r0", Axis: parallelism.FSDP, Ranks: []topo.GPUID{0, 4}},
		fsdp1:  &collective.Group{ID: 1, Name: "fsdp.s1.r0", Axis: parallelism.FSDP, Ranks: []topo.GPUID{8, 12}},
		pp0:    &collective.Group{ID: 2, Name: "pp.d0.r0", Axis: parallelism.PP, Ranks: []topo.GPUID{0, 8}},
		pp1:    &collective.Group{ID: 3, Name: "pp.d1.r0", Axis: parallelism.PP, Ranks: []topo.GPUID{4, 12}},
	}
	ctrl, err := NewController(SimClock(engine), NewCircuitTable(plan, r.groups()), latency)
	if err != nil {
		t.Fatal(err)
	}
	r.ctrl = ctrl
	return r
}

// at schedules fn at virtual time t, which must not be in the past.
func (r *rig) at(t units.Duration, fn func()) { r.engine.PostAfter(t-r.engine.Now(), fn) }

// groups lists the rig's groups by number.
func (r *rig) groups() []*collective.Group {
	return []*collective.Group{r.fsdp0, r.fsdp1, r.pp0, r.pp1}
}

func TestPortPlanCircuits(t *testing.T) {
	r := newRig(t, 0)
	m, err := r.plan.CircuitsFor(r.fsdp0)
	if err != nil {
		t.Fatal(err)
	}
	// Ring over nodes 0,1: (n0.tx=0 <-> n1.rx=3), (n1.tx=2 <-> n0.rx=1).
	if len(m) != 4 {
		t.Fatalf("%d connected ports, want 4 (2 circuits)", len(m))
	}
	if p, ok := m.Peer(0); !ok || p != 3 {
		t.Errorf("peer(0) = %d, want 3", p)
	}
	if p, ok := m.Peer(2); !ok || p != 1 {
		t.Errorf("peer(2) = %d, want 1", p)
	}
	// PP pair gets 2 circuits between its endpoints.
	mp, err := r.plan.CircuitsFor(r.pp0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.plan.CircuitsBetween(mp, 0, 8); got != 2 {
		t.Errorf("circuits between pp pair = %d, want 2", got)
	}
	if got := r.plan.CircuitsBetween(mp, 0, 4); got != 0 {
		t.Errorf("circuits between unrelated pair = %d, want 0", got)
	}
}

func TestPortPlanRejectsCrossRailGroup(t *testing.T) {
	r := newRig(t, 0)
	bad := &collective.Group{Name: "bad", Ranks: []topo.GPUID{0, 5}} // rails 0 and 1
	if _, err := r.plan.CircuitsFor(bad); err == nil {
		t.Error("cross-rail group accepted")
	}
	single := &collective.Group{Name: "solo", Ranks: []topo.GPUID{0}}
	if _, err := r.plan.CircuitsFor(single); err == nil {
		t.Error("1-member group accepted")
	}
}

func TestPortPlanStaticPartition(t *testing.T) {
	cl := topo.MustNew(topo.Config{NumNodes: 4, GPUsPerNode: 4, NIC: topo.FourPort100G})
	g := &collective.Group{Name: "g", Ranks: []topo.GPUID{0, 4}}
	p0 := PortPlan{Cluster: cl, PortsPerGPU: 4, PortBase: 0}
	p1 := PortPlan{Cluster: cl, PortsPerGPU: 4, PortBase: 2}
	m0, err := p0.CircuitsFor(g)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := p1.CircuitsFor(g)
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint port ranges: the two partitions never conflict.
	for p := range m0 {
		if _, ok := m1.Peer(p); ok {
			t.Errorf("static partitions share ports: %v vs %v", m0, m1)
			break
		}
	}
	bad := PortPlan{Cluster: cl, PortsPerGPU: 4, PortBase: 3}
	if bad.Validate() == nil {
		t.Error("port base 3 of 4 accepted (needs 2 ports)")
	}
}

func TestAcquireInstallsAndFastGrants(t *testing.T) {
	r := newRig(t, 15*ms)
	var grantedAt []units.Duration
	acquire := func(g *collective.Group) {
		if err := r.ctrl.Acquire(0, g, func() {
			grantedAt = append(grantedAt, r.engine.Now())
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.at(0, func() { acquire(r.fsdp0) })
	r.engine.Run()
	if len(grantedAt) != 1 || grantedAt[0] != 15*ms {
		t.Fatalf("first acquire granted at %v, want 15ms", grantedAt)
	}
	// Second acquire of the same group: fast path, no new reconfig.
	r.at(20*ms, func() { acquire(r.fsdp0) })
	r.engine.Run()
	if len(grantedAt) != 2 || grantedAt[1] != 20*ms {
		t.Fatalf("second acquire granted at %v, want 20ms", grantedAt)
	}
	st := r.ctrl.Stats()
	if st.Reconfigurations != 1 || st.FastGrants != 1 || st.QueuedGrants != 1 {
		t.Errorf("stats = %+v", st)
	}
	if !r.ctrl.Installed(0, "fsdp.s0.r0") {
		t.Error("group not installed")
	}
}

func TestConflictingGroupWaitsForTraffic(t *testing.T) {
	r := newRig(t, 10*ms)
	var ppGrantedAt units.Duration = -1
	r.at(0, func() {
		// fsdp0 installs (10ms) and holds traffic until 50ms.
		_ = r.ctrl.Acquire(0, r.fsdp0, func() {
			r.at(50*ms, func() { _ = r.ctrl.Release(0, r.fsdp0) })
		})
	})
	// pp0 conflicts with fsdp0 at node 0's ports; requested at 20ms.
	r.at(20*ms, func() {
		_ = r.ctrl.Acquire(0, r.pp0, func() { ppGrantedAt = r.engine.Now() })
	})
	r.engine.Run()
	// Tear-down can only start at 50ms (traffic done) + 10ms latency.
	if ppGrantedAt != 60*ms {
		t.Errorf("pp granted at %v, want 60ms", ppGrantedAt)
	}
	if r.ctrl.Installed(0, "fsdp.s0.r0") {
		t.Error("conflicting fsdp circuits still installed")
	}
	st := r.ctrl.Stats()
	// 10ms for fsdp0's initial install + 40ms for pp0's conflict wait.
	if st.BlockedTime != 50*ms {
		t.Errorf("blocked time = %v, want 50ms", st.BlockedTime)
	}
}

func TestNonConflictingGroupsCoexist(t *testing.T) {
	r := newRig(t, 10*ms)
	var grants []string
	r.at(0, func() {
		_ = r.ctrl.Acquire(0, r.fsdp0, func() { grants = append(grants, "fsdp0") })
		_ = r.ctrl.Acquire(0, r.fsdp1, func() { grants = append(grants, "fsdp1") })
	})
	r.engine.Run()
	// fsdp0 (nodes 0,1) and fsdp1 (nodes 2,3) use disjoint ports: both
	// install; the second waits only for the first's reconfiguration
	// slot (one reconfig at a time per rail).
	if len(grants) != 2 {
		t.Fatalf("grants = %v", grants)
	}
	if !r.ctrl.Installed(0, "fsdp.s0.r0") || !r.ctrl.Installed(0, "fsdp.s1.r0") {
		t.Error("both non-conflicting groups should be installed")
	}
}

func TestZeroLatencyActsAsFullConnectivity(t *testing.T) {
	r := newRig(t, 0)
	var order []string
	seq := []*collective.Group{r.fsdp0, r.pp0, r.fsdp1, r.pp1, r.fsdp0}
	r.at(0, func() {
		for _, g := range seq {
			g := g
			_ = r.ctrl.Acquire(0, g, func() {
				order = append(order, g.Name)
				_ = r.ctrl.Release(0, g)
			})
		}
	})
	end := r.engine.Run()
	if end != 0 {
		t.Errorf("zero-latency run advanced the clock to %v", end)
	}
	if len(order) != len(seq) {
		t.Errorf("grants = %v", order)
	}
}

func TestProvisionHidesLatency(t *testing.T) {
	// Without provisioning: pp0's request at its arrival (100ms) grants
	// at 100ms+latency. With a provisioned request at 40ms (when fsdp0's
	// traffic ended), the reconfiguration overlaps the window and the
	// arrival finds circuits ready.
	for _, provision := range []bool{false, true} {
		r := newRig(t, 25*ms)
		var ppGranted units.Duration = -1
		r.at(0, func() {
			_ = r.ctrl.Acquire(0, r.fsdp0, func() {
				r.at(40*ms, func() {
					_ = r.ctrl.Release(0, r.fsdp0)
					if provision {
						_ = r.ctrl.Provision(0, r.pp0)
					}
				})
			})
		})
		r.at(100*ms, func() {
			_ = r.ctrl.Acquire(0, r.pp0, func() { ppGranted = r.engine.Now() })
		})
		r.engine.Run()
		want := 125 * ms // 100 arrival + 25 reconfig
		if provision {
			want = 100 * ms // reconfig (40->65ms) hidden in the window
		}
		if ppGranted != want {
			t.Errorf("provision=%v: granted at %v, want %v", provision, ppGranted, want)
		}
		if provision && r.ctrl.Stats().ProvisionedRequests != 1 {
			t.Errorf("provisioned requests = %d", r.ctrl.Stats().ProvisionedRequests)
		}
	}
}

func TestProvisionDedupes(t *testing.T) {
	r := newRig(t, 10*ms)
	r.at(0, func() {
		_ = r.ctrl.Provision(0, r.pp0)
		_ = r.ctrl.Provision(0, r.pp0) // duplicate: no second request
	})
	r.engine.Run()
	if got := r.ctrl.Stats().ProvisionedRequests; got != 1 {
		t.Errorf("provisioned requests = %d, want 1", got)
	}
	// Provision of an installed group is a no-op.
	r.engine.PostNow(func() { _ = r.ctrl.Provision(0, r.pp0) })
	r.engine.Run()
	if got := r.ctrl.Stats().ProvisionedRequests; got != 1 {
		t.Errorf("after no-op provision: %d, want 1", got)
	}
}

func TestFCFSOrdering(t *testing.T) {
	// Requests are served in arrival order even when a later request's
	// circuits would be free sooner.
	r := newRig(t, 10*ms)
	var order []string
	hold := func(g *collective.Group, until units.Duration) func() {
		return func() {
			order = append(order, g.Name)
			r.at(until, func() { _ = r.ctrl.Release(0, g) })
		}
	}
	r.at(0, func() { _ = r.ctrl.Acquire(0, r.fsdp0, hold(r.fsdp0, 100*ms)) })
	// pp0 conflicts with fsdp0 (busy until 100ms): queued first.
	r.at(20*ms, func() { _ = r.ctrl.Acquire(0, r.pp0, hold(r.pp0, 200*ms)) })
	// fsdp1 is conflict-free but arrives later: FC-FS means it waits
	// behind pp0.
	r.at(30*ms, func() { _ = r.ctrl.Acquire(0, r.fsdp1, hold(r.fsdp1, 300*ms)) })
	r.engine.Run()
	want := []string{"fsdp.s0.r0", "pp.d0.r0", "fsdp.s1.r0"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("grant order = %v, want %v", order, want)
	}
}

func TestAcquireAttachesToPendingRequest(t *testing.T) {
	r := newRig(t, 10*ms)
	grants := 0
	r.at(0, func() {
		_ = r.ctrl.Provision(0, r.pp0)
		// Two collectives of the same group arrive while the provisioned
		// request is in flight: both attach to it.
		_ = r.ctrl.Acquire(0, r.pp0, func() { grants++ })
		_ = r.ctrl.Acquire(0, r.pp0, func() { grants++ })
	})
	r.engine.Run()
	if grants != 2 {
		t.Errorf("grants = %d, want 2", grants)
	}
	if got := r.ctrl.Stats().Reconfigurations; got != 1 {
		t.Errorf("reconfigurations = %d, want 1 (shared)", got)
	}
}

func TestFastPathBlockedByPendingConflict(t *testing.T) {
	// fsdp0 installed and idle; pp0 queued (conflicts). A new fsdp0
	// acquisition must NOT fast-grant past the queued pp0 (that would
	// starve it); it queues behind and re-installs after.
	r := newRig(t, 10*ms)
	var order []string
	r.at(0, func() {
		_ = r.ctrl.Acquire(0, r.fsdp0, func() {
			order = append(order, "fsdp0-a")
			_ = r.ctrl.Release(0, r.fsdp0)
		})
	})
	r.at(20*ms, func() {
		_ = r.ctrl.Acquire(0, r.pp0, func() {
			order = append(order, "pp0")
			r.at(50*ms, func() { _ = r.ctrl.Release(0, r.pp0) })
		})
		_ = r.ctrl.Acquire(0, r.fsdp0, func() {
			order = append(order, "fsdp0-b")
			_ = r.ctrl.Release(0, r.fsdp0)
		})
	})
	r.engine.Run()
	want := []string{"fsdp0-a", "pp0", "fsdp0-b"}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestReleaseErrors(t *testing.T) {
	r := newRig(t, 0)
	if err := r.ctrl.Release(0, r.fsdp0); err == nil {
		t.Error("release of inactive group accepted")
	}
	if err := r.ctrl.Release(99, r.fsdp0); err == nil {
		t.Error("release on unknown rail accepted")
	}
	if err := r.ctrl.Acquire(99, r.fsdp0, func() {}); err == nil {
		t.Error("acquire on unknown rail accepted")
	}
	if err := r.ctrl.Provision(99, r.fsdp0); err == nil {
		t.Error("provision on unknown rail accepted")
	}
}

func TestControllerValidation(t *testing.T) {
	cl := topo.MustNew(topo.Config{NumNodes: 2, GPUsPerNode: 2})
	e := sim.NewEngine()
	if _, err := NewController(SimClock(e), NewCircuitTable(PortPlan{Cluster: cl, PortsPerGPU: 2}, nil), -ms); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := NewController(SimClock(e), NewCircuitTable(PortPlan{Cluster: cl, PortsPerGPU: 0}, nil), 0); err == nil {
		t.Error("0-port plan accepted")
	}
	if _, err := NewController(SimClock(e), NewCircuitTable(PortPlan{}, nil), 0); err == nil {
		t.Error("nil-cluster plan accepted")
	}
}

// TestWarmControllerAllocatesNothing checks AcquireArg's claim: once a
// controller has served a pattern, repeating it allocates nothing — the
// fast path (circuits live) and a full reconfiguration cycle alike, in
// which pp0's request tears down fsdp0's idle circuits, waits out the
// switching latency, sets pp0's up and grants it, and fsdp0 then comes
// back the same way.
func TestWarmControllerAllocatesNothing(t *testing.T) {
	r := newRig(t, 10*ms)
	grants := 0
	granted := func(any) { grants++ }
	acquireRelease := func(g *collective.Group) {
		if err := r.ctrl.AcquireArg(0, g, granted, nil); err != nil {
			t.Fatal(err)
		}
		r.engine.Run()
		if err := r.ctrl.Release(0, g); err != nil {
			t.Fatal(err)
		}
		r.engine.Run()
	}
	cycle := func() {
		acquireRelease(r.pp0)
		acquireRelease(r.fsdp0)
	}
	cycle() // warm: slots, queue, batch and tear-down lists, free requests, engine events
	cycle()
	fast := testing.AllocsPerRun(100, func() { acquireRelease(r.fsdp0) })
	reconfigs := r.ctrl.Stats().Reconfigurations
	full := testing.AllocsPerRun(100, cycle)
	if got := r.ctrl.Stats().Reconfigurations - reconfigs; got != 2*101 {
		t.Fatalf("the cycle reconfigured %d times in 101 runs, want 2 per run", got)
	}
	if fast != 0 || full != 0 {
		t.Errorf("warm controller allocated: fast path %.1f, reconfiguration cycle %.1f per run; want 0", fast, full)
	}
	if want := 2*2 + 101 + 2*101; grants != want {
		t.Errorf("grants = %d, want %d", grants, want)
	}
}
