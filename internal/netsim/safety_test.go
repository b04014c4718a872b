package netsim

import (
	"testing"

	"photonrail/internal/opus"
	"photonrail/internal/trace"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// checkCircuitSafety asserts Objective 3 end to end: in a photonic run's
// trace, two transfers whose groups' circuits share a switch port never
// overlap in time on the same rail.
func checkCircuitSafety(t *testing.T, p *workload.Program, tr *trace.Trace) {
	t.Helper()
	plan := opus.PortPlan{
		Cluster:     p.Cluster,
		PortsPerGPU: p.Cluster.NIC.Ports,
		RingPairs:   p.Cluster.NIC.Ports / 2,
	}
	conflict := make(map[[2]string]bool)
	groupsConflict := func(a, b string) bool {
		if a == b {
			return false
		}
		key := [2]string{a, b}
		if a > b {
			key = [2]string{b, a}
		}
		if v, ok := conflict[key]; ok {
			return v
		}
		c, err := plan.GroupsConflict(p.Groups[a], p.Groups[b])
		if err != nil {
			t.Fatalf("conflict(%s, %s): %v", a, b, err)
		}
		conflict[key] = c
		return c
	}
	for _, rail := range tr.Rails() {
		spans := tr.RailSpans(rail, -1)
		// Sweep: compare each span against those still open at its start.
		type open struct {
			group string
			end   units.Duration
			label string
		}
		var live []open
		violations := 0
		for _, s := range spans {
			kept := live[:0]
			for _, o := range live {
				if o.end > s.Start {
					kept = append(kept, o)
				}
			}
			live = kept
			for _, o := range live {
				if groupsConflict(o.group, s.Group) {
					violations++
					if violations <= 3 {
						t.Errorf("rail %d: %q (group %s) overlaps %q (group %s) with conflicting circuits",
							rail, s.Label, s.Group, o.label, o.group)
					}
				}
			}
			live = append(live, open{group: s.Group, end: s.End, label: s.Label})
		}
		if violations > 3 {
			t.Errorf("rail %d: %d further violations suppressed", rail, violations-3)
		}
	}
}

// TestCircuitSafety3D checks the invariant on the paper workload.
func TestCircuitSafety3D(t *testing.T) {
	p := paperProgram(t, 2)
	for _, latency := range []units.Duration{0, units.Millisecond, 25 * units.Millisecond} {
		for _, provision := range []bool{false, true} {
			res, err := Run(p, Options{
				Mode:            Photonic,
				ReconfigLatency: latency,
				Provision:       provision,
				RecordTrace:     true,
			})
			if err != nil {
				t.Fatal(err)
			}
			checkCircuitSafety(t, p, res.Trace)
		}
	}
}

// TestCircuitSafety4D checks the invariant with three scale-out axes
// (CP interleave stresses the controller hardest).
func TestCircuitSafety4D(t *testing.T) {
	p := cp4DProgram(t, paperNIC(), 1)
	res, err := Run(p, Options{
		Mode:            Photonic,
		ReconfigLatency: 5 * units.Millisecond,
		Provision:       true,
		RecordTrace:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkCircuitSafety(t, p, res.Trace)
}

// TestCircuitSafetyGenerated checks the invariant on generated
// programs (randomProgram's grammar) at three switching latencies, with
// and without provisioning. The switch does not know which circuits
// carry traffic, so this test and opus's
// TestControllerRandomWorkloadProperty are what fail when the
// controller tears down a group with a transfer in flight.
func TestCircuitSafetyGenerated(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p, err := randomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, latency := range []units.Duration{0, units.Millisecond, 20 * units.Millisecond} {
			for _, provision := range []bool{false, true} {
				res, err := Run(p, Options{
					Mode:            Photonic,
					ReconfigLatency: latency,
					Provision:       provision,
					RecordTrace:     true,
				})
				if err != nil {
					t.Fatalf("seed %d latency %v provision %v: %v", seed, latency, provision, err)
				}
				checkCircuitSafety(t, p, res.Trace)
				if t.Failed() {
					t.Fatalf("seed %d latency %v provision %v: circuits unsafe", seed, latency, provision)
				}
			}
		}
	}
}
