// Package metrics provides the small statistics toolkit used by the
// photonic-rail evaluation harness: empirical CDFs (Fig. 4a) and
// histograms with named buckets (Fig. 4b).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied; the input is not retained).
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x), i.e. the fraction of samples <= x.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile (0 <= q <= 1) using the nearest-rank
// method. Quantile(0) is the minimum; Quantile(1) the maximum; a NaN q
// (or an empty CDF) is NaN. Out-of-range q clamps to the nearest bound.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 || math.IsNaN(q) {
		// NaN compares false against everything, so without this guard
		// a NaN q would fall through to int(NaN) — an implementation-
		// defined conversion that indexes out of range.
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(c.sorted) {
		rank = len(c.sorted) - 1
	}
	return c.sorted[rank]
}

// FractionAbove returns P(X > x).
func (c *CDF) FractionAbove(x float64) float64 { return 1 - c.At(x) }

// Bucket is one named histogram class (e.g. a Fig. 4b traffic-volume
// class) accumulating a count and the samples assigned to it.
type Bucket struct {
	Label   string
	Count   int
	Samples []float64
}

// Mean returns the mean of the bucket's samples (0 if empty).
func (b *Bucket) Mean() float64 {
	if len(b.Samples) == 0 {
		return 0
	}
	var s float64
	for _, v := range b.Samples {
		s += v
	}
	return s / float64(len(b.Samples))
}

// ClassifiedHistogram assigns samples to named buckets via a classifier
// function, preserving bucket declaration order for reporting.
type ClassifiedHistogram struct {
	order   []string
	buckets map[string]*Bucket
}

// NewClassifiedHistogram declares the bucket labels in display order.
func NewClassifiedHistogram(labels ...string) *ClassifiedHistogram {
	h := &ClassifiedHistogram{buckets: make(map[string]*Bucket)}
	for _, l := range labels {
		h.order = append(h.order, l)
		h.buckets[l] = &Bucket{Label: l}
	}
	return h
}

// Add records a sample under label. Unknown labels create a new trailing
// bucket so no data is silently dropped.
func (h *ClassifiedHistogram) Add(label string, sample float64) {
	b, ok := h.buckets[label]
	if !ok {
		b = &Bucket{Label: label}
		h.buckets[label] = b
		h.order = append(h.order, label)
	}
	b.Count++
	b.Samples = append(b.Samples, sample)
}

// Buckets returns the buckets in declaration order.
func (h *ClassifiedHistogram) Buckets() []*Bucket {
	out := make([]*Bucket, 0, len(h.order))
	for _, l := range h.order {
		out = append(out, h.buckets[l])
	}
	return out
}

// String renders "label: count (mean=…)" lines.
func (h *ClassifiedHistogram) String() string {
	var sb strings.Builder
	for _, b := range h.Buckets() {
		fmt.Fprintf(&sb, "%s: n=%d mean=%.4g\n", b.Label, b.Count, b.Mean())
	}
	return sb.String()
}
