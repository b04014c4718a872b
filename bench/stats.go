package main

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"

	"photonrail/internal/telemetry"
)

// metric is one reported number. N is the sample count behind a
// quantile or median, 0 otherwise.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
}

// MarshalJSON writes a value that could not be measured as null.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		return json.Marshal(struct {
			plain
			Value *float64 `json:"value"`
		}{plain: plain(m)})
	}
	return json.Marshal(plain(m))
}

// quantile interpolates linearly between the closest ranks; NaN for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// usage is the process's cumulative resource use at one instant.
type usage struct {
	cpuMS              float64 // user+sys, from getrusage
	allocs, allocBytes float64
	// gcCPU is the runtime's estimate of GC CPU seconds, updated at
	// each collection.
	gcCPU float64
}

var usageSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return usage{
		cpuMS:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6,
		allocs:     v(0),
		allocBytes: v(1),
		gcCPU:      v(2),
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB; Linux
// reports it in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024
}

// heapLiveMB is the live heap as of the last completed GC, in MiB.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// scrape renders a telemetry registry, exactly as /metrics serves it,
// and parses the samples back.
func scrape(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.Render(&buf) // a bytes.Buffer write cannot fail
	samples, err := telemetry.ParseSamples(&buf)
	if err != nil {
		panic(err) // Render's own output always parses
	}
	return samples
}

// sumPrefix adds every sample whose series starts with prefix.
func sumPrefix(samples map[string]float64, prefix string) float64 {
	var n float64
	for name, v := range samples {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}
