package topo

import (
	"testing"
	"testing/quick"

	"photonrail/internal/units"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{NumNodes: 4, GPUsPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterShape(t *testing.T) {
	c := testCluster(t)
	if c.NumGPUs() != 16 {
		t.Errorf("NumGPUs = %d, want 16", c.NumGPUs())
	}
	if c.NumRails() != 4 {
		t.Errorf("NumRails = %d, want 4", c.NumRails())
	}
	if got, want := c.String(), "16 GPUs (4 nodes x 4), NIC 2x200Gbps"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestGPUMapping(t *testing.T) {
	c := testCluster(t)
	tests := []struct {
		g         GPUID
		node      NodeID
		localRank int
	}{
		{0, 0, 0},
		{3, 0, 3},
		{4, 1, 0},
		{15, 3, 3},
	}
	for _, tt := range tests {
		if got := c.Node(tt.g); got != tt.node {
			t.Errorf("Node(%d) = %d, want %d", tt.g, got, tt.node)
		}
		if got := c.LocalRank(tt.g); got != tt.localRank {
			t.Errorf("LocalRank(%d) = %d, want %d", tt.g, got, tt.localRank)
		}
		if got := c.GPUAt(tt.node, tt.localRank); got != tt.g {
			t.Errorf("GPUAt(%d,%d) = %d, want %d", tt.node, tt.localRank, got, tt.g)
		}
		if got := c.Rail(tt.g); int(got) != tt.localRank {
			t.Errorf("Rail(%d) = %d, want %d", tt.g, got, tt.localRank)
		}
	}
}

// Property: GPUAt is the inverse of (Node, LocalRank) for every GPU, and
// rails and nodes partition the GPU set.
func TestMappingBijectionProperty(t *testing.T) {
	f := func(nodes, perNode uint8) bool {
		nn := int(nodes%16) + 1
		pn := int(perNode%16) + 1
		c := MustNew(Config{NumNodes: nn, GPUsPerNode: pn})
		seen := make(map[GPUID]bool)
		for g := GPUID(0); int(g) < c.NumGPUs(); g++ {
			if c.GPUAt(c.Node(g), c.LocalRank(g)) != g {
				return false
			}
			seen[g] = true
		}
		// Rails partition the set: each holds one GPU per node.
		perRail := make(map[RailID]int)
		for g := range seen {
			perRail[c.Rail(g)]++
		}
		if len(perRail) != c.NumRails() {
			return false
		}
		for _, n := range perRail {
			if n != c.NumNodes {
				return false
			}
		}
		return len(seen) == c.NumGPUs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPortConfigs(t *testing.T) {
	if OnePort400G.Total() != 400*units.Gbps {
		t.Error("1x400 total")
	}
	if TwoPort200G.Total() != 400*units.Gbps {
		t.Error("2x200 total")
	}
	if FourPort100G.Total() != 400*units.Gbps {
		t.Error("4x100 total")
	}
	if TwoPort200G.String() != "2x200Gbps" {
		t.Errorf("String() = %q", TwoPort200G.String())
	}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{NumNodes: 0, GPUsPerNode: 4},
		{NumNodes: 4, GPUsPerNode: 0},
		{NumNodes: 4, GPUsPerNode: 4, NIC: PortConfig{Ports: -1, PerPort: units.Gbps}},
		{NumNodes: 4, GPUsPerNode: 4, NIC: PortConfig{Ports: 2, PerPort: -units.Gbps}},
		{NumNodes: 4, GPUsPerNode: 4, ScaleUpLatency: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := MustNew(Config{NumNodes: 2, GPUsPerNode: 2})
	if c.NIC != TwoPort200G {
		t.Errorf("default NIC = %v", c.NIC)
	}
	if c.ScaleUpBandwidth != DefaultScaleUpBandwidth {
		t.Errorf("default scale-up bw = %v", c.ScaleUpBandwidth)
	}
	if c.ScaleUpLatency != DefaultScaleUpLatency || c.ScaleOutLatency != DefaultScaleOutLatency {
		t.Error("default latencies not applied")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := testCluster(t)
	for name, fn := range map[string]func(){
		"GPUAt node": func() { c.GPUAt(99, 0) },
		"GPUAt rank": func() { c.GPUAt(0, 99) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPresets(t *testing.T) {
	p, err := Perlmutter(4, FourPort100G)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumGPUs() != 16 || p.NumRails() != 4 {
		t.Errorf("Perlmutter(4): %v", p)
	}
}
