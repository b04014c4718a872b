package ocs

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestOpusScaleClaim(t *testing.T) {
	// Paper §4.2: "Opus GPU-backend network can scale up to 36K GPUs"
	// — the Robotic/GB200 cell.
	if got := Robotic.MaxGPUs(72); got != 36288 {
		t.Errorf("max scale = %d, want 36288", got)
	}
}

func TestMatchingConnect(t *testing.T) {
	m := Matching{}
	if err := m.Connect(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Connect(1, 4); err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 {
		t.Errorf("%d connected ports, want 4", len(m))
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

// Property: any matching built through Connect validates, equals a
// copy of itself, and differs from the copy once a circuit is gone.
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
		c := maps.Clone(m)
		if !m.Equal(c) {
			return false
		}
		if pairs := m.AppendPairs(nil); len(pairs) > 0 {
			delete(c, pairs[0][0])
			delete(c, pairs[0][1])
			return !m.Equal(c) && !c.Equal(m)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
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

func TestSwitchRejectsOutOfRadix(t *testing.T) {
	s := NewSwitch("rail0", PLZT.Radix) // radix 16
	m := Matching{}
	_ = m.Connect(0, 20)
	if err := s.SetUp(m.AppendPairs(nil)); err == nil {
		t.Error("out-of-radix circuit set up")
	}
}

// TearDown and SetUp change the installed circuits in place, group by
// group: a used port is not reused, an uninstalled circuit is not torn
// down, and a refused call leaves the switch unchanged.
func TestSwitchTearDownSetUp(t *testing.T) {
	s := NewSwitch("rail0", 16)
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
	if cur := s.Current(); cur.String() != "0<->1 2<->3" {
		t.Fatalf("SetUp installed %v, want 0<->1 2<->3", cur)
	}
	if err := s.TearDown(pair(4, 5).AppendPairs(nil)); err == nil {
		t.Error("tear-down of an uninstalled circuit accepted")
	}
	if err := s.TearDown([][2]Port{{3, 2}}); err != nil {
		t.Fatal(err)
	}
	if cur := s.Current(); !cur.Equal(a) {
		t.Errorf("TearDown left %v, want %v", cur, a)
	}
	for _, c := range []struct {
		pairs [][2]Port
		err   string
	}{
		{[][2]Port{{1, 7}}, "ocs rail0: port 1 already connected to 0"},
		{[][2]Port{{6, 20}}, "ocs rail0: port 20 outside radix 16"},
		{[][2]Port{{5, 5}}, "ocs rail0: port 5 matched to itself"},
		{[][2]Port{{4, 5}, {5, 6}}, "ocs rail0: port 5 already connected to 4"},
	} {
		if err := s.SetUp(c.pairs); err == nil || err.Error() != c.err {
			t.Errorf("SetUp(%v) = %v, want %q", c.pairs, err, c.err)
		}
	}
	if cur := s.Current(); !cur.Equal(a) {
		t.Errorf("refused calls changed the switch: %v, want %v", cur, a)
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
