package photonrail

import (
	"testing"

	"photonrail/internal/collective"
	"photonrail/internal/opus"
	"photonrail/internal/topo"
)

// TestCircuitTableMatchesPortPlan builds the programs of the cold-grid
// shapes (3D, 4D and 5D) and checks the dense circuit table against the
// port plan it indexes, under the Opus plan and under every static
// partition of the NIC: each group's entry is PortPlan.CircuitsFor and
// counts the circuits between two members as PortPlan.CircuitsBetween,
// each pair's conflict bit is PortPlan.GroupsConflict, the groups are
// numbered densely, and a group the table was not built with is
// refused. The shapes run with their grid's two-port NIC and again
// with four ports, where the static partitions differ from the Opus
// plan.
func TestCircuitTableMatchesPortPlan(t *testing.T) {
	for _, spec := range coldGrids() {
		g, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		w := gridWorkload(g.Expand()[0])
		for _, nic := range []topo.PortConfig{w.NIC, topo.FourPort100G} {
			w.NIC = nic
			p, err := w.build()
			if err != nil {
				t.Fatal(err)
			}
			ix, err := p.ValidIndex()
			if err != nil {
				t.Fatal(err)
			}
			groups := ix.Groups
			if len(groups) != len(p.Groups) {
				t.Fatalf("%s: index numbers %d groups, program has %d", spec.Name, len(groups), len(p.Groups))
			}
			for n, gr := range groups {
				if gr == nil || gr.ID != n || p.Groups[gr.Name] != gr {
					t.Fatalf("%s: group slot %d holds %+v", spec.Name, n, gr)
				}
			}
			ports := p.Cluster.NIC.Ports
			plans := []opus.PortPlan{{Cluster: p.Cluster, PortsPerGPU: ports, RingPairs: ports / 2}}
			for base := 0; base+2 <= ports; base += 2 {
				plans = append(plans, opus.PortPlan{Cluster: p.Cluster, PortsPerGPU: ports, PortBase: base, RingPairs: 1})
			}
			for _, plan := range plans {
				checkTableAgainstPlan(t, spec.Name, plan, groups)
			}
		}
	}
}

// checkTableAgainstPlan compares a table built over groups with the
// plan's own derivations, and checks that the table refuses groups it
// was not built with.
func checkTableAgainstPlan(t *testing.T, name string, plan opus.PortPlan, groups []*collective.Group) {
	t.Helper()
	tab := opus.NewCircuitTable(plan, groups)
	for _, a := range groups {
		got, gerr := tab.CircuitsFor(a)
		want, werr := plan.CircuitsFor(a)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() || !got.Equal(want) {
			t.Fatalf("%s %+v: CircuitsFor(%s) = %v, %v; PortPlan says %v, %v", name, plan, a.Name, got, gerr, want, werr)
		}
		for _, x := range a.Ranks {
			for _, y := range a.Ranks {
				n, err := tab.CircuitsBetween(a, x, y)
				if (err == nil) != (werr == nil) || werr == nil && n != plan.CircuitsBetween(want, x, y) {
					t.Fatalf("%s %+v: CircuitsBetween(%s, %d, %d) = %d, %v; PortPlan says %d, %v",
						name, plan, a.Name, x, y, n, err, plan.CircuitsBetween(want, x, y), werr)
				}
			}
		}
		for _, b := range groups {
			got, gerr := tab.GroupsConflict(a, b)
			want, werr := plan.GroupsConflict(a, b)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("%s %+v: GroupsConflict(%s, %s) = %v, %v; PortPlan says %v, %v",
					name, plan, a.Name, b.Name, got, gerr, want, werr)
			}
		}
	}
	// A copy of a numbered group is not the group the table holds, and
	// a number past the table's end names no group.
	twin := *groups[0]
	past := &collective.Group{ID: len(groups), Name: "past", Ranks: groups[0].Ranks}
	for _, g := range []*collective.Group{&twin, past} {
		if _, err := tab.CircuitsFor(g); err == nil {
			t.Errorf("%s: CircuitsFor served %s (number %d), which the table was not built with", name, g.Name, g.ID)
		}
		if _, err := tab.GroupsConflict(groups[0], g); err == nil {
			t.Errorf("%s: GroupsConflict served %s (number %d), which the table was not built with", name, g.Name, g.ID)
		}
		if _, err := tab.CircuitsBetween(g, g.Ranks[0], g.Ranks[1]); err == nil {
			t.Errorf("%s: CircuitsBetween served %s (number %d), which the table was not built with", name, g.Name, g.ID)
		}
	}
}
