package photonrail

import (
	"crypto/sha256"
	"slices"
	"testing"
)

// hostKernel is a fixed unit of CPU and memory work, the layered
// benchmark's calibration kernel (bench/calibrate.go) repeated here so
// the perf gate can time it beside the code under test: hash 2 MiB,
// chase 256Ki pointers through 4 MiB, and sort 64Ki integers twice.
// scripts/bench_diff.sh reads a run's host speed from its
// BenchmarkHostSpeed time and corrects every other ns/op by it.
type hostKernel struct {
	buf       []byte   // hashed
	next      []uint32 // one random cycle through its indices, chased
	src, work []uint64 // src is copied into work and sorted
	sink      uint64
}

// newHostKernel fills the kernel's inputs from a fixed xorshift
// stream, so every run times the same work.
func newHostKernel() *hostKernel {
	k := &hostKernel{
		buf:  make([]byte, 2<<20),
		next: make([]uint32, 1<<20),
		src:  make([]uint64, 1<<16),
		work: make([]uint64, 1<<16),
	}
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.buf {
		k.buf[i] = byte(rnd())
	}
	for i := range k.src {
		k.src[i] = rnd()
	}
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle, so the chase visits 4 MiB in
	// an order the prefetcher cannot follow.
	for i := len(k.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// run does the fixed work once; it allocates nothing.
func (k *hostKernel) run() {
	sum := sha256.Sum256(k.buf)
	p := uint32(sum[0])
	for i := 0; i < 1<<18; i++ {
		p = k.next[p]
	}
	for r := 0; r < 2; r++ {
		copy(k.work, k.src)
		slices.Sort(k.work)
	}
	k.sink += uint64(p) + k.work[0]
}

// BenchmarkHostSpeed times the host kernel: the perf gate's measure of
// how fast the host ran the suite, not a measure of this module.
func BenchmarkHostSpeed(b *testing.B) {
	k := newHostKernel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.run()
	}
}
