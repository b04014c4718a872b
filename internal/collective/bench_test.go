package collective

import (
	"testing"

	"photonrail/internal/units"
)

// BenchmarkTimeRingAllReduce measures the α–β cost-model hot path, which
// the network executor calls once per collective.
func BenchmarkTimeRingAllReduce(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Time(AllReduce, Ring, 16, units.GB, 400*units.Gbps, 5*units.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTimeAllToAllMultiHop measures the ring-embedding AllToAll
// path.
func BenchmarkTimeAllToAllMultiHop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Time(AllToAll, MultiHopRing, 16, 100*units.MB, 400*units.Gbps, 5*units.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}
