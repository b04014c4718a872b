package collective

import (
	"testing"
	"testing/quick"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

const (
	bw400 = 400 * units.Gbps
	alpha = 5 * units.Microsecond
)

func TestRingAllReduceTime(t *testing.T) {
	// k=4, S=400MB-ish: pick S so S/B is exact. S = 50e9/8... use
	// 50,000,000 bytes -> 1ms at 400Gbps.
	S := units.ByteSize(50_000_000)
	got, err := Time(AllReduce, Ring, 4, S, bw400, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2(k-1)/k * 1ms = 1.5ms.
	want := units.FromMilliseconds(1.5)
	if got != want {
		t.Errorf("ring AR = %v, want %v", got, want)
	}
	// Alpha term: 2(k-1) messages.
	got, _ = Time(AllReduce, Ring, 4, 0, bw400, alpha)
	if got != 6*alpha {
		t.Errorf("ring AR alpha = %v, want %v", got, 6*alpha)
	}
}

func TestRingAGRSTime(t *testing.T) {
	S := units.ByteSize(50_000_000) // 1ms serial
	for _, kind := range []Kind{AllGather, ReduceScatter} {
		got, err := Time(kind, Ring, 4, S, bw400, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := units.FromMilliseconds(0.75) // (k-1)/k
		if got != want {
			t.Errorf("%v ring = %v, want %v", kind, got, want)
		}
	}
	// AG and RS are symmetric halves of AR: AG + RS == AR.
	ag, _ := Time(AllGather, Ring, 8, S, bw400, alpha)
	rs, _ := Time(ReduceScatter, Ring, 8, S, bw400, alpha)
	ar, _ := Time(AllReduce, Ring, 8, S, bw400, alpha)
	if ag+rs != ar {
		t.Errorf("AG+RS = %v, AR = %v; ring AR should equal RS-then-AG", ag+rs, ar)
	}
}

func TestSendRecvTime(t *testing.T) {
	S := units.ByteSize(50_000_000)
	got, err := Time(SendRecv, Direct, 2, S, bw400, alpha)
	if err != nil {
		t.Fatal(err)
	}
	want := alpha + units.FromMilliseconds(1)
	if got != want {
		t.Errorf("Send/Recv = %v, want %v", got, want)
	}
}

func TestTreeVsRingLatencyTradeoff(t *testing.T) {
	// C1's motivation: trees win at small sizes (latency-bound), rings
	// win at large sizes (bandwidth-bound).
	small := units.ByteSize(1024)
	large := units.ByteSize(1 * units.GB)
	k := 64
	ringSmall, _ := Time(AllReduce, Ring, k, small, bw400, alpha)
	treeSmall, _ := Time(AllReduce, Tree, k, small, bw400, alpha)
	if treeSmall >= ringSmall {
		t.Errorf("tree (%v) should beat ring (%v) at small sizes", treeSmall, ringSmall)
	}
	ringLarge, _ := Time(AllReduce, Ring, k, large, bw400, alpha)
	treeLarge, _ := Time(AllReduce, Tree, k, large, bw400, alpha)
	if ringLarge >= treeLarge {
		t.Errorf("ring (%v) should beat tree (%v) at large sizes", ringLarge, treeLarge)
	}
}

func TestAllToAllBandwidthTax(t *testing.T) {
	// Multi-hop ring AllToAll pays a k/2 bandwidth tax over direct.
	S := units.ByteSize(100 * units.MB)
	k := 8
	direct, _ := Time(AllToAll, Direct, k, S, bw400, 0)
	ring, _ := Time(AllToAll, MultiHopRing, k, S, bw400, 0)
	ratio := float64(ring) / float64(direct)
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("multi-hop tax = %.2fx, want ≈k/2 = 4x", ratio)
	}
}

func TestSelfCollectiveFree(t *testing.T) {
	got, err := Time(AllReduce, Ring, 1, units.GB, bw400, alpha)
	if err != nil || got != 0 {
		t.Errorf("1-rank collective = %v, %v; want 0, nil", got, err)
	}
}

func TestTimeErrors(t *testing.T) {
	if _, err := Time(AllReduce, Ring, 0, units.MB, bw400, alpha); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Time(AllReduce, Ring, 4, -1, bw400, alpha); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := Time(AllGather, Tree, 4, units.MB, bw400, alpha); err == nil {
		t.Error("AG has no tree algorithm; accepted")
	}
	if _, err := Time(AllToAll, Ring, 4, units.MB, bw400, alpha); err == nil {
		t.Error("AllToAll over plain ring accepted")
	}
}

// Property: collective time is monotone in bytes and never negative.
func TestTimeMonotoneProperty(t *testing.T) {
	kinds := []Kind{AllReduce, AllGather, ReduceScatter, SendRecv, AllToAll}
	f := func(a, b uint32, kindSel, kSel uint8) bool {
		kind := kinds[int(kindSel)%len(kinds)]
		alg := DefaultAlgorithm(kind, true)
		k := int(kSel%15) + 2
		if kind == SendRecv {
			k = 2
		}
		s1 := units.ByteSize(a % (1 << 28))
		s2 := units.ByteSize(b % (1 << 28))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		t1, err1 := Time(kind, alg, k, s1, bw400, alpha)
		t2, err2 := Time(kind, alg, k, s2, bw400, alpha)
		if err1 != nil || err2 != nil {
			return false
		}
		return t1 >= 0 && t1 <= t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRequiredDegree(t *testing.T) {
	tests := []struct {
		alg  Algorithm
		k    int
		want int
	}{
		{Ring, 16, 2},
		{MultiHopRing, 16, 2},
		{Tree, 16, 3},
		{RecursiveDoubling, 16, 4},
		{RecursiveDoubling, 5, 3},
		{Direct, 16, 15},
	}
	for _, tt := range tests {
		if got := tt.alg.RequiredDegree(tt.k); got != tt.want {
			t.Errorf("%v.RequiredDegree(%d) = %d, want %d", tt.alg, tt.k, got, tt.want)
		}
	}
}

func TestFeasibleOnCircuits(t *testing.T) {
	// C1: with a 2-port NIC only ring algorithms fit.
	if !Ring.FeasibleOnCircuits(16, 2) {
		t.Error("ring should fit 2 ports")
	}
	if Tree.FeasibleOnCircuits(16, 2) {
		t.Error("tree should not fit 2 ports")
	}
	if RecursiveDoubling.FeasibleOnCircuits(16, 2) {
		t.Error("recursive doubling should not fit 2 ports")
	}
	if Direct.FeasibleOnCircuits(16, 4) {
		t.Error("direct should not fit 4 ports for 16 ranks")
	}
}

func TestGroupMembership(t *testing.T) {
	g := &Group{Name: "dp0", Axis: parallelism.FSDP, Ranks: []topo.GPUID{0, 4, 8, 12}}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Contains(8) || g.Contains(1) {
		t.Error("Contains wrong")
	}
	if g.Size() != 4 {
		t.Error("Size wrong")
	}
}

func TestGroupValidate(t *testing.T) {
	if err := (&Group{Name: "empty"}).Validate(); err == nil {
		t.Error("empty group validated")
	}
	dup := &Group{Name: "dup", Ranks: []topo.GPUID{1, 2, 1}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate-rank group validated")
	}
}

func TestDefaultAlgorithm(t *testing.T) {
	if DefaultAlgorithm(AllReduce, true) != Ring {
		t.Error("AR on circuits should be ring")
	}
	if DefaultAlgorithm(AllToAll, true) != MultiHopRing {
		t.Error("AllToAll on circuits should be multi-hop ring")
	}
	if DefaultAlgorithm(AllToAll, false) != Direct {
		t.Error("AllToAll on packets should be direct")
	}
	if DefaultAlgorithm(SendRecv, false) != Direct {
		t.Error("SendRecv should be direct")
	}
	if DefaultAlgorithm(SendRecv, true) != Ring {
		t.Error("SendRecv on circuits should use the ring circuits")
	}
}

func TestAlgorithmString(t *testing.T) {
	for _, a := range []Algorithm{Ring, Tree, RecursiveDoubling, Direct, MultiHopRing, Algorithm(42)} {
		if a.String() == "" {
			t.Errorf("Algorithm(%d).String() empty", int(a))
		}
	}
}
