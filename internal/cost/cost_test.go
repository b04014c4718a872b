package cost

import (
	"testing"
	"testing/quick"
)

// count returns the total units of the named device in b.
func count(b BOM, name string) int {
	n := 0
	for _, it := range b.Items {
		if it.Device.Name == name {
			n += it.Count
		}
	}
	return n
}

func TestFatTreeTiers(t *testing.T) {
	cat := DefaultCatalog()
	// Single switch up to 64 hosts.
	b, err := FatTree(64, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(b, cat.Switch.Name); got != 1 {
		t.Errorf("64 hosts: %d switches, want 1", got)
	}
	// 3-tier at 1024: 32 edge + 32 agg + 16 core.
	b, _ = FatTree(1024, cat)
	if got := count(b, cat.Switch.Name); got != 80 {
		t.Errorf("1024 hosts: %d switches, want 80", got)
	}
	// 3-tier at 8192: 256 edge + 256 agg + 128 core = 640.
	b, _ = FatTree(8192, cat)
	if got := count(b, cat.Switch.Name); got != 640 {
		t.Errorf("8192 hosts: %d switches, want 640", got)
	}
	if got := count(b, cat.Transceiver400.Name); got != 2*3*8192 {
		t.Errorf("8192 hosts: %d transceivers, want %d", got, 2*3*8192)
	}
}

func TestRailOptimizedCounts(t *testing.T) {
	cat := DefaultCatalog()
	// 8192 GPUs, 8/node -> 1024 nodes/rail: 2-tier per rail:
	// 32 leaves + 16 spines = 48; x8 rails = 384 switches.
	b, err := RailOptimized(8192, 8, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(b, cat.Switch.Name); got != 384 {
		t.Errorf("switches = %d, want 384", got)
	}
	// Links per rail: 2*1024; transceivers 2 per link; x8 rails.
	if got := count(b, cat.Transceiver400.Name); got != 32768 {
		t.Errorf("transceivers = %d, want 32768", got)
	}
	// 1024 GPUs -> 128 nodes/rail: 2-tier (128 > 64): 4+2=6 per rail, 48 total.
	b, _ = RailOptimized(1024, 8, cat)
	if got := count(b, cat.Switch.Name); got != 48 {
		t.Errorf("1024: switches = %d, want 48", got)
	}
	// 512 GPUs -> 64 nodes/rail: single switch per rail.
	b, _ = RailOptimized(512, 8, cat)
	if got := count(b, cat.Switch.Name); got != 8 {
		t.Errorf("512: switches = %d, want 8", got)
	}
}

func TestOpusCounts(t *testing.T) {
	cat := DefaultCatalog()
	// 8192 GPUs, 8/node: 1024 nodes/rail x2 ports = 2048 ports ->
	// ceil(2048/384) = 6 OCS/rail, 48 total; 2 transceivers per GPU.
	b, err := Opus(8192, 8, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := count(b, cat.OCS.Name); got != 48 {
		t.Errorf("OCS count = %d, want 48", got)
	}
	if got := count(b, cat.Transceiver200.Name); got != 16384 {
		t.Errorf("transceivers = %d, want 16384", got)
	}
	if got := count(b, cat.Switch.Name); got != 0 {
		t.Errorf("Opus has %d electrical switches", got)
	}
}

// TestFig7Headline checks the paper's headline numbers: Opus saves up to
// 70.5% cost and 95.84% power versus the electrical rail-optimized
// fabric. Our component model must land in the right band at 8192 GPUs.
func TestFig7Headline(t *testing.T) {
	cat := DefaultCatalog()
	rail, err := RailOptimized(8192, 8, cat)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Opus(8192, 8, cat)
	if err != nil {
		t.Fatal(err)
	}
	costFrac, powerFrac := Savings(rail, op)
	if costFrac < 0.65 || costFrac > 0.78 {
		t.Errorf("cost saving = %.1f%%, want ≈70.5%% (band 65-78)", 100*costFrac)
	}
	if powerFrac < 0.93 || powerFrac > 0.98 {
		t.Errorf("power saving = %.1f%%, want ≈95.84%% (band 93-98)", 100*powerFrac)
	}
}

// TestFig7Ordering checks fat-tree > rail-optimized > Opus in both cost
// and power at every paper size.
func TestFig7Ordering(t *testing.T) {
	rows, err := Fig7(PaperSizes(), 8, DefaultCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !(r.FatTree.TotalCost() > r.Rail.TotalCost() && r.Rail.TotalCost() > r.Opus.TotalCost()) {
			t.Errorf("%d GPUs: cost ordering broken: ft=%v rail=%v opus=%v",
				r.GPUs, r.FatTree.TotalCost(), r.Rail.TotalCost(), r.Opus.TotalCost())
		}
		if !(r.FatTree.TotalPower() > r.Rail.TotalPower() && r.Rail.TotalPower() > r.Opus.TotalPower()) {
			t.Errorf("%d GPUs: power ordering broken: ft=%v rail=%v opus=%v",
				r.GPUs, r.FatTree.TotalPower(), r.Rail.TotalPower(), r.Opus.TotalPower())
		}
	}
	// Fig. 7 axes: fat-tree at 8192 is ~3e7 dollars, ~2e6 watts.
	last := rows[3]
	if c := float64(last.FatTree.TotalCost()); c < 2e7 || c > 4e7 {
		t.Errorf("fat-tree cost at 8192 = %.3g, want ≈3e7", c)
	}
	if p := float64(last.FatTree.TotalPower()); p < 1.4e6 || p > 2.5e6 {
		t.Errorf("fat-tree power at 8192 = %.3g, want ≈2e6", p)
	}
}

// Property: cost and power are monotone in GPU count for every design.
func TestMonotoneInSize(t *testing.T) {
	cat := DefaultCatalog()
	f := func(a, b uint16) bool {
		n1 := (int(a)%1024 + 1) * 8
		n2 := (int(b)%1024 + 1) * 8
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		ft1, err1 := FatTree(n1, cat)
		ft2, err2 := FatTree(n2, cat)
		r1, err3 := RailOptimized(n1, 8, cat)
		r2, err4 := RailOptimized(n2, 8, cat)
		o1, err5 := Opus(n1, 8, cat)
		o2, err6 := Opus(n2, 8, cat)
		for _, err := range []error{err1, err2, err3, err4, err5, err6} {
			if err != nil {
				return false
			}
		}
		return ft1.TotalCost() <= ft2.TotalCost() &&
			r1.TotalCost() <= r2.TotalCost() &&
			o1.TotalCost() <= o2.TotalCost() &&
			ft1.TotalPower() <= ft2.TotalPower() &&
			r1.TotalPower() <= r2.TotalPower() &&
			o1.TotalPower() <= o2.TotalPower()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestValidation(t *testing.T) {
	cat := DefaultCatalog()
	if _, err := FatTree(0, cat); err == nil {
		t.Error("0 GPUs accepted")
	}
	if _, err := RailOptimized(100, 8, cat); err == nil {
		t.Error("non-divisible GPU count accepted")
	}
	if _, err := Opus(-8, 8, cat); err == nil {
		t.Error("negative GPUs accepted")
	}
	bad := cat
	bad.SwitchRadix = 0
	if _, err := FatTree(64, bad); err == nil {
		t.Error("zero-radix catalog accepted")
	}
	bad = cat
	bad.OCS.Price = 0
	if _, err := Opus(64, 8, bad); err == nil {
		t.Error("zero-price catalog accepted")
	}
	// Rail beyond 2-tier reach errors rather than under-counting.
	if _, err := RailOptimized(8*3000, 8, cat); err == nil {
		t.Error("3000-node rail accepted")
	}
}

func TestSavingsAgainstFatTree(t *testing.T) {
	cat := DefaultCatalog()
	ft, _ := FatTree(8192, cat)
	op, _ := Opus(8192, 8, cat)
	costFrac, powerFrac := Savings(ft, op)
	// Versus the fat-tree the savings are even larger.
	if costFrac < 0.75 || powerFrac < 0.95 {
		t.Errorf("vs fat-tree: cost %.1f%%, power %.1f%%", 100*costFrac, 100*powerFrac)
	}
}
