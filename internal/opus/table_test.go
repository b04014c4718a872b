package opus

import (
	"reflect"
	"testing"

	"photonrail/internal/collective"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
)

func TestGroupsConflict(t *testing.T) {
	r := newRig(t, 0)
	// fsdp0 and pp0 both use GPU 0's ports; fsdp0 and fsdp1 are disjoint.
	if c, err := r.plan.GroupsConflict(r.fsdp0, r.pp0); err != nil || !c {
		t.Errorf("GroupsConflict(fsdp0, pp0) = %v, %v; want true", c, err)
	}
	if c, err := r.plan.GroupsConflict(r.fsdp0, r.fsdp1); err != nil || c {
		t.Errorf("GroupsConflict(fsdp0, fsdp1) = %v, %v; want false", c, err)
	}
	// A group spanning rails is underivable; the error propagates.
	bad := &collective.Group{Name: "bad", Axis: parallelism.TP, Ranks: []topo.GPUID{0, 1}}
	if _, err := r.plan.GroupsConflict(bad, r.fsdp0); err == nil {
		t.Error("GroupsConflict with an underivable first group did not error")
	}
	if _, err := r.plan.GroupsConflict(r.fsdp0, bad); err == nil {
		t.Error("GroupsConflict with an underivable second group did not error")
	}
}

func TestCircuitTableMemoizes(t *testing.T) {
	r := newRig(t, 0)
	tab := NewCircuitTable(r.plan, r.groups())
	if tab.Plan().Cluster != r.plan.Cluster {
		t.Error("Plan() does not return the constructed plan")
	}
	m1, err := tab.CircuitsFor(r.fsdp0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := tab.CircuitsFor(r.fsdp0)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(m1).Pointer() != reflect.ValueOf(m2).Pointer() {
		t.Error("CircuitsFor recomputed instead of returning the memoized matching")
	}
	// A conflict verdict is kept once per unordered pair: in the row of
	// the higher-numbered group (pp0, number 2), which both orders read.
	c1, err := tab.GroupsConflict(r.fsdp0, r.pp0)
	if err != nil || !c1 {
		t.Fatalf("GroupsConflict = %v, %v; want true", c1, err)
	}
	c2, err := tab.GroupsConflict(r.pp0, r.fsdp0)
	if err != nil || !c2 {
		t.Fatalf("reversed GroupsConflict = %v, %v; want true", c2, err)
	}
	fsdp0, _ := tab.entry(r.fsdp0)
	pp0, _ := tab.entry(r.pp0)
	if len(fsdp0.conflicts) != 1 || fsdp0.conflicts[0] != 1 || pp0.conflicts[0]&1 == 0 {
		t.Errorf("conflict rows fsdp0 %b, pp0 %b; want the pair's bit in pp0's row only (symmetric slot)",
			fsdp0.conflicts, pp0.conflicts)
	}
	if c, err := tab.GroupsConflict(r.fsdp0, r.fsdp1); err != nil || c {
		t.Errorf("GroupsConflict(fsdp0, fsdp1) = %v, %v; want false", c, err)
	}
}

func TestCircuitTableMemoizesErrors(t *testing.T) {
	r := newRig(t, 0)
	bad := &collective.Group{ID: 4, Name: "bad", Axis: parallelism.TP, Ranks: []topo.GPUID{0, 1}}
	tab := NewCircuitTable(r.plan, append(r.groups(), bad))
	_, err1 := tab.CircuitsFor(bad)
	if err1 == nil {
		t.Fatal("cross-rail group did not error")
	}
	_, err2 := tab.CircuitsFor(bad)
	if err2 != err1 {
		t.Error("error not memoized: second derivation returned a fresh error")
	}
	if _, err := tab.GroupsConflict(bad, r.fsdp0); err == nil {
		t.Error("GroupsConflict with underivable group did not error")
	}
	if _, err := tab.GroupsConflict(r.fsdp0, bad); err == nil {
		t.Error("GroupsConflict with underivable second group did not error")
	}
	// The memoized error is replayed for the pair, too.
	if _, err := tab.GroupsConflict(bad, r.fsdp0); err == nil {
		t.Error("memoized conflict error not replayed")
	}
}

func TestControllerLatencyAccessor(t *testing.T) {
	r := newRig(t, 3*ms)
	if got := r.ctrl.Latency(); got != 3*ms {
		t.Errorf("Latency() = %v, want %v", got, 3*ms)
	}
}

// TestCircuitTableAdd grows a table one group at a time, as the Opus
// server does when shims register groups: Add refuses a group with the
// wrong number or without derivable circuits and leaves the table as
// it was, and an added group's entry, conflict row and circuit counts
// agree with the plan. A controller over the table serves the added
// group.
func TestCircuitTableAdd(t *testing.T) {
	r := newRig(t, 0)
	tab := NewCircuitTable(r.plan, nil)
	ctrl, err := NewController(SimClock(r.engine), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := &collective.Group{ID: 0, Name: "bad", Ranks: []topo.GPUID{0, 1}}
	if err := tab.Add(bad); err == nil {
		t.Error("cross-rail group added")
	}
	if err := tab.Add(r.fsdp1); err == nil {
		t.Error("group numbered 1 added as the table's first")
	}
	for _, g := range r.groups() {
		if err := tab.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.CircuitsFor(bad); err == nil {
		t.Error("refused group found in the table")
	}
	groups := r.groups()
	for _, a := range groups {
		for _, b := range groups {
			got, err := tab.GroupsConflict(a, b)
			want, _ := r.plan.GroupsConflict(a, b)
			if err != nil || got != want {
				t.Errorf("GroupsConflict(%s, %s) = %v, %v; want %v", a.Name, b.Name, got, err, want)
			}
		}
	}
	if n, err := tab.CircuitsBetween(r.pp0, 0, 8); err != nil || n != 2 {
		t.Errorf("CircuitsBetween(pp0, 0, 8) = %d, %v; want 2", n, err)
	}
	if n, err := tab.CircuitsBetween(r.pp0, 0, 4); err != nil || n != 0 {
		t.Errorf("CircuitsBetween(pp0, 0, 4) = %d, %v; want 0", n, err)
	}
	granted := false
	r.at(0, func() {
		if err := ctrl.Acquire(0, r.pp1, func() { granted = true }); err != nil {
			t.Error(err)
		}
	})
	r.engine.Run()
	if !granted || !ctrl.Installed(0, r.pp1.Name) || ctrl.Installed(0, r.pp0.Name) {
		t.Errorf("added group pp1: granted %v, installed %v", granted, ctrl.Installed(0, r.pp1.Name))
	}
	if err := NewCircuitTable(PortPlan{}, nil).Add(r.fsdp0); err == nil {
		t.Error("group added under a plan without a cluster")
	}
}

// TestControllerRefusesUnknownGroup checks that a group the circuit
// table was not built with, such as a copy of a registered one, is
// refused with an error on every call rather than served from another
// group's slot, and that an underivable group's error comes back from
// CircuitsBetween too.
func TestControllerRefusesUnknownGroup(t *testing.T) {
	r := newRig(t, 0)
	twin := *r.fsdp0
	if err := r.ctrl.Acquire(0, &twin, func() {}); err == nil {
		t.Error("Acquire served a group the table does not hold")
	}
	if err := r.ctrl.Provision(0, &twin); err == nil {
		t.Error("Provision served a group the table does not hold")
	}
	if err := r.ctrl.Release(0, &twin); err == nil {
		t.Error("Release served a group the table does not hold")
	}
	if _, err := NewCircuitTable(r.plan, r.groups()).CircuitsBetween(&twin, 0, 4); err == nil {
		t.Error("CircuitsBetween served a group the table does not hold")
	}
	bad := &collective.Group{ID: 4, Name: "bad", Ranks: []topo.GPUID{0, 1}}
	tab := NewCircuitTable(r.plan, append(r.groups(), bad))
	if _, err := tab.CircuitsBetween(bad, 0, 1); err == nil {
		t.Error("CircuitsBetween counted circuits of an underivable group")
	}
	ctrl, err := NewController(SimClock(r.engine), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Acquire(0, bad, func() {}); err == nil {
		t.Error("Acquire of an underivable group accepted")
	}
	if err := ctrl.Provision(0, bad); err == nil {
		t.Error("Provision of an underivable group accepted")
	}
}
