package ocs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"photonrail/internal/units"
)

// TestTable3Catalog reproduces the #GPUs columns of Table 3 exactly:
// #GPUs = scale-up size × radix/2 for GB200 (72/domain) and H200
// (8/domain).
func TestTable3Catalog(t *testing.T) {
	want := []struct {
		name       string
		reconfigMS float64
		radix      int
		gb200      int
		h200       int
	}{
		{"PLZT", 0.00001, 16, 576, 64},
		{"SiP", 0.007, 32, 1152, 128},
		{"RotorNet", 0.01, 128, 4608, 512},
		{"3D MEMS", 15, 320, 11520, 1280},
		{"Piezo", 25, 576, 20736, 2304},
		{"Liquid crystal", 100, 512, 18432, 2048},
		{"Robotic", 120000, 1008, 36288, 4032},
	}
	cat := Catalog()
	if len(cat) != len(want) {
		t.Fatalf("catalog has %d rows, want %d", len(cat), len(want))
	}
	for i, w := range want {
		tech := cat[i]
		if tech.Name != w.name {
			t.Errorf("row %d: name %q, want %q", i, tech.Name, w.name)
		}
		if got := tech.ReconfigTime.Milliseconds(); got != w.reconfigMS {
			t.Errorf("%s: reconfig %v ms, want %v", w.name, got, w.reconfigMS)
		}
		if tech.Radix != w.radix {
			t.Errorf("%s: radix %d, want %d", w.name, tech.Radix, w.radix)
		}
		if got := tech.MaxGPUs(72); got != w.gb200 {
			t.Errorf("%s: MaxGPUs(GB200) = %d, want %d", w.name, got, w.gb200)
		}
		if got := tech.MaxGPUs(8); got != w.h200 {
			t.Errorf("%s: MaxGPUs(H200) = %d, want %d", w.name, got, w.h200)
		}
	}
}

func TestByName(t *testing.T) {
	tech, ok := ByName("Piezo")
	if !ok || tech.Vendor != "Polatis" {
		t.Errorf("ByName(Piezo) = %v, %v", tech, ok)
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) found something")
	}
}

func TestOpusScaleClaim(t *testing.T) {
	// Paper §4.2: "Opus GPU-backend network can scale up to 36K GPUs"
	// — the Robotic/GB200 cell.
	if got := Robotic.MaxGPUs(72); got != 36288 {
		t.Errorf("max scale = %d, want 36288", got)
	}
}

func TestMatchingConnectDisconnect(t *testing.T) {
	m := Matching{}
	if err := m.Connect(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Connect(1, 4); err != nil {
		t.Fatal(err)
	}
	if m.Circuits() != 2 {
		t.Errorf("Circuits() = %d, want 2", m.Circuits())
	}
	if p, ok := m.Peer(5); !ok || p != 0 {
		t.Errorf("Peer(5) = %d, %v", p, ok)
	}
	// One-to-one: port 0 is taken.
	if err := m.Connect(0, 7); err == nil {
		t.Error("double-connect accepted")
	}
	if err := m.Connect(7, 4); err == nil {
		t.Error("double-connect on b accepted")
	}
	if err := m.Connect(3, 3); err == nil {
		t.Error("self-circuit accepted")
	}
	m.Disconnect(5)
	if _, ok := m.Peer(0); ok {
		t.Error("Disconnect did not remove both directions")
	}
	m.Disconnect(99) // no-op
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMatchingValidate(t *testing.T) {
	bad := Matching{0: 5} // asymmetric
	if err := bad.Validate(); err == nil {
		t.Error("asymmetric matching validated")
	}
	self := Matching{3: 3}
	if err := self.Validate(); err == nil {
		t.Error("self-loop validated")
	}
	ok := Matching{0: 1, 1: 0}
	if err := ok.ValidateRadix(2); err != nil {
		t.Error(err)
	}
	if err := ok.ValidateRadix(1); err == nil {
		t.Error("out-of-radix port validated")
	}
}

func TestMatchingDiff(t *testing.T) {
	a := Matching{}
	_ = a.Connect(0, 1)
	_ = a.Connect(2, 3)
	b := Matching{}
	_ = b.Connect(2, 3) // survives
	_ = b.Connect(0, 4) // new
	tear, set := a.Diff(b)
	if len(tear) != 1 || tear[0] != [2]Port{0, 1} {
		t.Errorf("tearDown = %v", tear)
	}
	if len(set) != 1 || set[0] != [2]Port{0, 4} {
		t.Errorf("setUp = %v", set)
	}
	// Identity diff is empty.
	tear, set = a.Diff(a.Clone())
	if len(tear) != 0 || len(set) != 0 {
		t.Errorf("identity diff = %v, %v", tear, set)
	}
}

func TestRingMatching(t *testing.T) {
	members := []int{0, 1, 2, 3}
	tx := func(i int) Port { return Port(2 * i) }
	rx := func(i int) Port { return Port(2*i + 1) }
	m, err := NewRingMatching(members, tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Circuits() != 4 {
		t.Errorf("ring circuits = %d, want 4", m.Circuits())
	}
	// 0.tx -> 1.rx, ..., 3.tx -> 0.rx.
	for i := range members {
		next := (i + 1) % len(members)
		if p, ok := m.Peer(tx(i)); !ok || p != rx(next) {
			t.Errorf("member %d tx peer = %v, want %v", i, p, rx(next))
		}
	}
	if _, err := NewRingMatching([]int{0}, tx, rx); err == nil {
		t.Error("1-member ring accepted")
	}
}

// Property: any matching built through Connect validates, Equal(Clone) is
// true, and Diff(self) is empty.
func TestMatchingInvariantProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := Matching{}
		count := int(n % 32)
		for i := 0; i < count; i++ {
			a := Port(rng.Intn(128))
			b := Port(rng.Intn(128))
			_ = m.Connect(a, b) // errors allowed: taken ports, self-loops
		}
		if m.Validate() != nil {
			return false
		}
		if !m.Equal(m.Clone()) {
			return false
		}
		tear, set := m.Diff(m)
		return len(tear) == 0 && len(set) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Diff is a correct edit script — applying the tear-downs and
// set-ups to the old matching yields the new matching.
func TestMatchingDiffProperty(t *testing.T) {
	randomMatching := func(rng *rand.Rand, circuits int) Matching {
		m := Matching{}
		for i := 0; i < circuits; i++ {
			_ = m.Connect(Port(rng.Intn(64)), Port(rng.Intn(64)))
		}
		return m
	}
	f := func(seed int64, n1, n2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		old := randomMatching(rng, int(n1%16))
		next := randomMatching(rng, int(n2%16))
		tear, set := old.Diff(next)
		got := old.Clone()
		for _, c := range tear {
			got.Disconnect(c[0])
		}
		for _, c := range set {
			if err := got.Connect(c[0], c[1]); err != nil {
				return false
			}
		}
		return got.Equal(next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMatchingString(t *testing.T) {
	m := Matching{}
	_ = m.Connect(4, 1)
	_ = m.Connect(0, 5)
	if got := m.String(); got != "0<->5 1<->4" {
		t.Errorf("String() = %q", got)
	}
}

func TestSwitchApply(t *testing.T) {
	s := NewSwitch("rail0", MEMS3D)
	if s.Radix() != 320 || s.ReconfigTime() != units.FromMilliseconds(15) {
		t.Error("switch technology wiring wrong")
	}
	m := Matching{}
	_ = m.Connect(0, 1)
	if err := s.Apply(m); err != nil {
		t.Fatal(err)
	}
	if !s.Connected(0, 1) || s.Connected(0, 2) {
		t.Error("Connected wrong")
	}
	if s.Reconfigurations() != 1 {
		t.Errorf("reconfig count = %d", s.Reconfigurations())
	}
	// Identical apply is a no-op.
	if err := s.Apply(m.Clone()); err != nil {
		t.Fatal(err)
	}
	if s.Reconfigurations() != 1 {
		t.Errorf("no-op apply counted: %d", s.Reconfigurations())
	}
}

func TestSwitchRejectsOutOfRadix(t *testing.T) {
	s := NewSwitch("rail0", PLZT) // radix 16
	m := Matching{}
	_ = m.Connect(0, 20)
	if err := s.Apply(m); err == nil {
		t.Error("out-of-radix matching applied")
	}
}

func TestSwitchTrafficConflict(t *testing.T) {
	s := NewSwitch("rail0", MEMS3D)
	m := Matching{}
	_ = m.Connect(0, 1)
	_ = m.Connect(2, 3)
	if err := s.Apply(m); err != nil {
		t.Fatal(err)
	}
	if err := s.PinTraffic(0); err != nil {
		t.Fatal(err)
	}
	if !s.Busy(0) || !s.Busy(1) || s.Busy(2) {
		t.Error("Busy wrong after pin")
	}
	// Tearing down the busy circuit must fail...
	next := Matching{}
	_ = next.Connect(0, 5)
	if err := s.Apply(next); err == nil {
		t.Error("reconfiguration disturbed ongoing traffic")
	}
	// ...but reconfiguring only the idle circuit is fine.
	next2 := Matching{}
	_ = next2.Connect(0, 1) // keep busy circuit
	_ = next2.Connect(2, 7)
	if err := s.Apply(next2); err != nil {
		t.Errorf("idle-circuit reconfig rejected: %v", err)
	}
	// After unpinning, the original reconfig succeeds.
	if err := s.UnpinTraffic(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(next); err != nil {
		t.Errorf("reconfig after unpin rejected: %v", err)
	}
}

// TearDown and SetUp change the installed matching in place, group by
// group, with Apply's safety rules: a busy circuit stays, a used port
// is not reused, and a refused call leaves the switch unchanged.
func TestSwitchTearDownSetUp(t *testing.T) {
	s := NewSwitch("rail0", PLZT) // radix 16
	pair := func(a, b Port) Matching {
		m := Matching{}
		_ = m.Connect(a, b)
		return m
	}
	a, b := pair(0, 1), pair(2, 3)
	for _, m := range []Matching{a, b} {
		if err := s.SetUp(m.AppendPairs(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Connected(0, 1) || !s.Connected(3, 2) {
		t.Fatal("SetUp did not install its circuits")
	}
	if err := s.PinTraffic(0); err != nil {
		t.Fatal(err)
	}
	if err := s.TearDown(a.AppendPairs(nil)); err == nil {
		t.Error("tear-down disturbed ongoing traffic")
	}
	if err := s.TearDown(pair(4, 5).AppendPairs(nil)); err == nil {
		t.Error("tear-down of an uninstalled circuit accepted")
	}
	if err := s.TearDown(b.AppendPairs(nil)); err != nil {
		t.Fatal(err)
	}
	if !s.Connected(0, 1) || s.Connected(2, 3) {
		t.Error("TearDown removed the wrong circuits")
	}
	for _, m := range []Matching{pair(1, 7), pair(6, 20)} {
		if err := s.SetUp(m.AppendPairs(nil)); err == nil {
			t.Errorf("SetUp(%v) accepted", m)
		}
	}
	want := pair(0, 1)
	if cur := s.Current(); !cur.Equal(want) {
		t.Errorf("refused calls changed the switch: %v, want %v", cur, want)
	}
	if s.Reconfigurations() != 0 {
		t.Errorf("TearDown/SetUp counted %d reconfigurations", s.Reconfigurations())
	}
}

func TestSwitchPinErrors(t *testing.T) {
	s := NewSwitch("rail0", MEMS3D)
	if err := s.PinTraffic(0); err == nil {
		t.Error("pin on unconnected port accepted")
	}
	if err := s.UnpinTraffic(0); err == nil {
		t.Error("unpin on unconnected port accepted")
	}
	m := Matching{}
	_ = m.Connect(0, 1)
	_ = s.Apply(m)
	if err := s.UnpinTraffic(0); err == nil {
		t.Error("unpin without pin accepted")
	}
}

func TestMaxGPUsPanicsOnBadScaleUp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxGPUs(0) did not panic")
		}
	}()
	PLZT.MaxGPUs(0)
}
