package sim

import (
	"testing"

	"photonrail/internal/units"
)

// BenchmarkEngineThroughput measures raw event throughput: schedule and
// fire chained events (each event schedules its successor).
func BenchmarkEngineThroughput(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	remaining := b.N
	var tick func(any)
	tick = func(any) {
		remaining--
		if remaining > 0 {
			e.PostArgAfter(units.Nanosecond, tick, nil)
		}
	}
	e.PostArgNow(tick, nil)
	b.ResetTimer()
	e.Run()
}

// BenchmarkEngineFanOut measures a wide frontier: b.N events pre-queued
// at random-ish times, drained in one Run.
func BenchmarkEngineFanOut(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	nop := func(any) {}
	for i := 0; i < b.N; i++ {
		e.PostArgAfter(units.Duration((i*2654435761)%1_000_000), nop, nil)
	}
	b.ResetTimer()
	e.Run()
}
