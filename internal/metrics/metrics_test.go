package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFBasic(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0, 0},
		{1, 0.25},
		{2.5, 0.5},
		{4, 1},
		{100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if got := c.FractionAbove(1); got != 0.75 {
		t.Errorf("FractionAbove(1) = %v, want 0.75", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.N() != 0 || c.At(5) != 0 {
		t.Error("empty CDF should report zero")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	tests := []struct {
		q, want float64
	}{
		{0, 10},
		{0.2, 10},
		{0.5, 30},
		{0.8, 40},
		{1, 50},
	}
	for _, tt := range tests {
		if got := c.Quantile(tt.q); got != tt.want {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

// TestQuantileBoundaries pins the nearest-rank edges: extreme and
// out-of-range q, the single-sample CDF, exact rank boundaries on an
// even-sized sample set, and NaN safety — a NaN q compares false
// against both range guards, so it must be caught explicitly rather
// than converted to an index.
func TestQuantileBoundaries(t *testing.T) {
	four := NewCDF([]float64{1, 2, 3, 4})
	single := NewCDF([]float64{7})
	tests := []struct {
		name string
		c    *CDF
		q    float64
		want float64
	}{
		{"zero-is-min", four, 0, 1},
		{"one-is-max", four, 1, 4},
		{"negative-clamps-to-min", four, -0.5, 1},
		{"above-one-clamps-to-max", four, 1.5, 4},
		{"exact-rank-boundary", four, 0.25, 1},     // ceil(0.25*4) = 1st sample exactly
		{"just-past-rank-boundary", four, 0.26, 2}, // ceil(0.26*4) = 2nd
		{"median-even-n", four, 0.5, 2},            // nearest-rank median of even n is the lower middle
		{"just-past-median", four, 0.51, 3},
		{"p75-boundary", four, 0.75, 3},
		{"epsilon-below-one", four, math.Nextafter(1, 0), 4},
		{"single-sample-min", single, 0, 7},
		{"single-sample-median", single, 0.5, 7},
		{"single-sample-max", single, 1, 7},
		{"single-sample-epsilon", single, math.SmallestNonzeroFloat64, 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Quantile(tt.q); got != tt.want {
				t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
			}
		})
	}
	// NaN in, NaN out — for any sample count, without panicking.
	for _, c := range []*CDF{four, single, NewCDF(nil)} {
		if got := c.Quantile(math.NaN()); !math.IsNaN(got) {
			t.Errorf("Quantile(NaN) over %d samples = %v, want NaN", c.N(), got)
		}
	}
	if got := NewCDF(nil).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile(0.5) = %v, want NaN", got)
	}
}

func TestCDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	c := NewCDF(in)
	in[0] = 100
	if got := c.Quantile(1); got != 3 {
		t.Errorf("CDF aliased its input: max = %v, want 3", got)
	}
}

// Property: At is a valid CDF — monotone, in [0,1], and At(max) == 1.
func TestCDFProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		samples := make([]float64, count)
		for i := range samples {
			samples[i] = rng.NormFloat64() * 100
		}
		c := NewCDF(samples)
		prev := -1.0
		for x := -300.0; x <= 300; x += 10 {
			p := c.At(x)
			if p < 0 || p > 1 || p < prev {
				return false
			}
			prev = p
		}
		return c.At(c.Quantile(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Quantile is monotone in q and bounded by [min, max].
func TestQuantileProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%100) + 1
		samples := make([]float64, count)
		for i := range samples {
			samples[i] = rng.Float64() * 1000
		}
		c := NewCDF(samples)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := c.Quantile(q)
			if v < prev {
				return false
			}
			if v < c.Quantile(0) || v > c.Quantile(1) {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClassifiedHistogram(t *testing.T) {
	h := NewClassifiedHistogram("<1MB", "64MB", "957MB", "3829MB")
	h.Add("<1MB", 0.5)
	h.Add("<1MB", 1.5)
	h.Add("957MB", 100)
	bs := h.Buckets()
	if len(bs) != 4 {
		t.Fatalf("buckets = %d, want 4", len(bs))
	}
	if bs[0].Count != 2 || bs[0].Mean() != 1 {
		t.Errorf("bucket <1MB count=%d mean=%v", bs[0].Count, bs[0].Mean())
	}
	if bs[1].Count != 0 || bs[1].Mean() != 0 {
		t.Errorf("empty bucket should be zero")
	}
	// Unknown label appended, not dropped.
	h.Add("other", 7)
	bs = h.Buckets()
	if len(bs) != 5 || bs[4].Label != "other" || bs[4].Count != 1 {
		t.Errorf("unknown label handling broken: %+v", bs)
	}
	if h.String() == "" {
		t.Error("String() empty")
	}
}
