package netsim

import (
	"reflect"
	"testing"

	"photonrail/internal/topo"
	"photonrail/internal/workload"
)

func mkProfile(orders map[topo.RailID][]workload.TaskID) *Profile {
	p := &Profile{order: make(map[topo.RailID][]workload.TaskID)}
	for rail, ids := range orders {
		cp := make([]workload.TaskID, len(ids))
		copy(cp, ids)
		p.order[rail] = cp
	}
	return p
}

// TestProfilePositions: a run's profile holds no positions until it is
// consulted; positions maps each profiled op to its index in its rail's
// order and every other ID below the largest profiled one to -1.
func TestProfilePositions(t *testing.T) {
	p := mkProfile(map[topo.RailID][]workload.TaskID{0: {3, 1}, 1: {5}})
	if got, want := p.positions(), []int{-1, 1, -1, 0, -1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("positions = %v, want %v", got, want)
	}
	res, err := Run(paperProgram(t, 1), Options{Mode: Photonic, ReconfigLatency: 10 * ms})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.pos != nil {
		t.Error("an unconsulted profile holds positions")
	}
}

// TestProfileEqual pins the convergence comparison: two independently
// allocated profiles with the same per-rail order are equal, and any
// divergence in rails, lengths, or order breaks equality. Pointer
// identity (the pre-fix check) must not be required.
func TestProfileEqual(t *testing.T) {
	base := map[topo.RailID][]workload.TaskID{0: {3, 1, 2}, 1: {5, 4}}
	a, b := mkProfile(base), mkProfile(base)
	if a == b {
		t.Fatal("test profiles share a pointer")
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("identical contents not equal")
	}
	if !a.Equal(a) {
		t.Error("profile not equal to itself")
	}

	reordered := mkProfile(map[topo.RailID][]workload.TaskID{0: {1, 3, 2}, 1: {5, 4}})
	if a.Equal(reordered) {
		t.Error("reordered rail considered equal")
	}
	shorter := mkProfile(map[topo.RailID][]workload.TaskID{0: {3, 1, 2}})
	if a.Equal(shorter) || shorter.Equal(a) {
		t.Error("missing rail considered equal")
	}
	otherRail := mkProfile(map[topo.RailID][]workload.TaskID{0: {3, 1, 2}, 2: {5, 4}})
	if a.Equal(otherRail) {
		t.Error("different rail set considered equal")
	}

	var nilP *Profile
	if nilP.Equal(a) || a.Equal(nilP) {
		t.Error("nil equal to non-nil")
	}
	if !nilP.Equal(nil) {
		t.Error("nil not equal to nil")
	}
}

// TestRunProfileStableAcrossRuns checks that re-running the same program
// reactively yields content-equal (never pointer-equal) profiles — the
// property the provisioned-stable convergence loop relies on.
func TestRunProfileStableAcrossRuns(t *testing.T) {
	p := paperProgram(t, 1)
	a, err := Run(p, Options{Mode: Photonic, ReconfigLatency: 10 * ms})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, Options{Mode: Photonic, ReconfigLatency: 10 * ms})
	if err != nil {
		t.Fatal(err)
	}
	if a.Profile == b.Profile {
		t.Fatal("independent runs shared a profile pointer")
	}
	if !a.Profile.Equal(b.Profile) {
		t.Error("deterministic runs produced different profiles")
	}
}
