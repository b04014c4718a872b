package main

import (
	"crypto/sha256"
	"math"
	"slices"
	"time"
)

// The end-to-end timings are reported at a reference host speed. On a
// shared 2-core VM the host's speed drifts by up to 1.5x over minutes,
// with the other tenants' load, and every timing of a run moves with
// it. A fixed kernel, timed just before and just after each measured
// round and each set-up, moves with it too. The host's speed then is
// refKernelMS over the kernel's time, and a timing is scaled by
// toReference of it to what it would read on a host that runs the
// kernel in refKernelMS. The report prints the timings as measured
// beside them.

// refKernelMS is the kernel's time on the reference host. It only sets
// the scale: on the 2-core VM of bench/README.md (go1.24) the kernel
// took 25 to 46 ms as the other tenants' load changed.
const refKernelMS = 25.0

// speedExponent is how strongly the stack's timings follow the
// kernel's: the kernel, bound by memory latency, slows more than the
// stack when the host is busy. Over two sets of ten runs per workload,
// a fit of log time on log speed had slopes of 0.37 to 0.97, most
// between 0.5 and 0.8, for p50, req/s and CPU per request on the
// closed-loop workloads; of the exponents 0.5 to 1, 0.6 gave the
// narrowest spreads on average.
const speedExponent = 0.6

// toReference is the factor that scales a time measured at the given
// host speed to the reference speed.
func toReference(speed float64) float64 { return math.Pow(speed, speedExponent) }

// calibrator holds the kernel's inputs. The kernel allocates nothing,
// so it neither starts nor waits on a collection of the stack's heap.
type calibrator struct {
	buf       []byte   // hashed
	next      []uint32 // one random cycle through its indices, chased
	src, work []uint64 // src is copied into work and sorted
	sink      uint64
}

// newCalibrator fills the kernel's inputs from a fixed xorshift stream,
// so every run times the same work.
func newCalibrator() *calibrator {
	c := &calibrator{
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
	for i := range c.buf {
		c.buf[i] = byte(rnd())
	}
	for i := range c.src {
		c.src[i] = rnd()
	}
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	// Sattolo's shuffle: a single cycle, so the chase visits 4 MiB in
	// an order the prefetcher cannot follow.
	for i := len(c.next) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	return c
}

// kernel does the fixed work once: hash 2 MiB, chase 256Ki pointers
// through 4 MiB, and sort 64Ki integers twice.
func (c *calibrator) kernel() time.Duration {
	t0 := time.Now()
	sum := sha256.Sum256(c.buf)
	p := uint32(sum[0])
	for i := 0; i < 1<<18; i++ {
		p = c.next[p]
	}
	for k := 0; k < 2; k++ {
		copy(c.work, c.src)
		slices.Sort(c.work)
	}
	c.sink += uint64(p) + c.work[0]
	return time.Since(t0)
}

// speed is the host's speed now relative to the reference host:
// refKernelMS over the median of three kernel times; 1 for a nil c.
func (c *calibrator) speed() float64 {
	if c == nil {
		return 1
	}
	ts := make([]float64, 3)
	for i := range ts {
		ts[i] = ms(c.kernel())
	}
	return refKernelMS / median(ts)
}
