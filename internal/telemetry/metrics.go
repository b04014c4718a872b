// Package telemetry is the fleet-grade observability layer behind
// raild and railfleet: a Prometheus-text-format metrics registry
// (counters, gauges, fixed-bucket histograms — standard library only,
// no client_golang dependency) plus a bounded, non-blocking structured
// event log for request lifecycles. Both are served over an opt-in
// HTTP listener (Handler: GET /metrics for a scrape, GET /events for
// an SSE tail of the event ring).
//
// The registry favors *sampled* metrics for counters that already
// exist elsewhere: an OnScrape hook runs before every render, so a
// server can copy its authoritative counters (e.g. the engine cache
// stats that travel the opusnet stats_resp frame) into the registry at
// scrape time — the scrape and the stats frame can never disagree.
// Live metrics (in-flight gauges, latency histograms) are updated
// inline on the hot path with atomic or short-critical-section
// operations; nothing in this package blocks on a consumer.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets are the fixed histogram bounds (seconds) used for
// request-latency histograms: roughly logarithmic from 1 ms to 60 s,
// bracketing everything from a warm-cache cell subset to a cold
// full-grid fan-out.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. Construct with NewRegistry; the zero value
// is not usable. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families []*family          // registration order
	byName   map[string]*family // duplicate-registration guard
	hooks    []func()
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// OnScrape registers fn to run at the start of every Render, before
// any family is written. Servers use it to copy authoritative counters
// (engine cache stats, per-backend health) into sampled metrics so a
// scrape always matches the source of truth. Hooks run sequentially in
// registration order, outside the registry lock; they must not call
// Render.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// family is one named metric with a fixed type, help string, and label
// schema; its series are the per-label-value children.
type family struct {
	name, help, typ string
	labelNames      []string
	uppers          []float64 // histogram bucket upper bounds

	mu     sync.Mutex
	series map[string]any // joined label values -> *Counter/*Gauge/*Histogram
}

// register installs a family, panicking on a duplicate name: metric
// names are a fixed, code-defined schema, so a collision is a
// programming error best caught at construction.
func (r *Registry) register(name, help, typ string, labelNames []string, uppers []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", name))
	}
	f := &family{
		name: name, help: help, typ: typ,
		labelNames: labelNames,
		uppers:     uppers,
		series:     make(map[string]any),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// child returns the series for the label values, creating it on first
// use. Label arity is fixed by the family's schema.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := joinLabels(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.series[key]
	if !ok {
		c = make()
		f.series[key] = c
	}
	return c
}

// joinLabels builds the series key from label values; \x1f cannot
// appear in a rendered label, so the join is unambiguous.
func joinLabels(values []string) string { return strings.Join(values, "\x1f") }

// Counter is a monotonically increasing metric. Set exists for sampled
// counters — mirrors of an authoritative counter maintained elsewhere
// (an engine's cache stats, a backend snapshot) copied in by an
// OnScrape hook; inline-updated counters use Inc/Add only.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the value (sampled counters only; see type doc).
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value reports the current value.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reports the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: Observe assigns a sample
// to the first bucket whose upper bound is >= the value (cumulative
// "le" semantics render at scrape time). The critical section is a few
// loads and stores, so Observe is safe on hot paths.
type Histogram struct {
	uppers []float64 // sorted upper bounds, +Inf implicit

	mu     sync.Mutex
	counts []uint64 // per-bucket (not cumulative); last slot = +Inf overflow
	sum    float64
	total  uint64
}

func newHistogram(uppers []float64) *Histogram {
	return &Histogram{uppers: uppers, counts: make([]uint64, len(uppers)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v)
	h.mu.Lock()
	h.counts[i]++
	h.total++
	h.sum += v
	h.mu.Unlock()
}

// Count reports the number of samples observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum reports the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, the sum, and the total.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return cum, h.sum, h.total
}

// Counter registers a label-free counter family and returns its single
// series.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers a label-free gauge family and returns its single
// series.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram registers a label-free histogram family with the given
// bucket upper bounds (sorted ascending; +Inf is implicit) and returns
// its single series.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, append([]float64(nil), uppers...))
	return f.child(nil, func() any { return newHistogram(f.uppers) }).(*Histogram)
}

// CounterVec is a counter family with labels; With resolves one series.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.register(name, help, "counter", labelNames, nil)}
}

// With returns the series for the label values, creating it on first
// use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labels; With resolves one series.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, "gauge", labelNames, nil)}
}

// With returns the series for the label values, creating it on first
// use.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec is a histogram family with labels; With resolves one
// series.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family with the given
// bucket upper bounds.
func (r *Registry) HistogramVec(name, help string, uppers []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, "histogram", labelNames, append([]float64(nil), uppers...))}
}

// With returns the series for the label values, creating it on first
// use.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.child(labelValues, func() any { return newHistogram(v.f.uppers) }).(*Histogram)
}

// Render runs the OnScrape hooks, then writes every family in
// registration order — series sorted by label values — in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	families := append([]*family{}, r.families...)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
	var sb strings.Builder
	for _, f := range families {
		f.render(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func (f *family) render(sb *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	series := make([]any, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		series = append(series, f.series[k])
	}
	f.mu.Unlock()
	if len(series) == 0 {
		return
	}
	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.typ)
	for i, k := range keys {
		var values []string
		if k != "" || len(f.labelNames) > 0 {
			values = strings.Split(k, "\x1f")
		}
		switch m := series[i].(type) {
		case *Counter:
			fmt.Fprintf(sb, "%s %d\n", seriesName(f.name, f.labelNames, values, "", ""), m.Value())
		case *Gauge:
			fmt.Fprintf(sb, "%s %s\n", seriesName(f.name, f.labelNames, values, "", ""), formatFloat(m.Value()))
		case *Histogram:
			cum, sum, total := m.snapshot()
			for bi, upper := range m.uppers {
				fmt.Fprintf(sb, "%s %d\n",
					seriesName(f.name+"_bucket", f.labelNames, values, "le", formatFloat(upper)), cum[bi])
			}
			fmt.Fprintf(sb, "%s %d\n",
				seriesName(f.name+"_bucket", f.labelNames, values, "le", "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(sb, "%s %s\n", seriesName(f.name+"_sum", f.labelNames, values, "", ""), formatFloat(sum))
			fmt.Fprintf(sb, "%s %d\n", seriesName(f.name+"_count", f.labelNames, values, "", ""), total)
		}
	}
}

// seriesName renders name{label="value",...}, appending the extra
// label (histogram "le") when set.
func seriesName(name string, labelNames, values []string, extraName, extraValue string) string {
	if len(labelNames) == 0 && extraName == "" {
		return name
	}
	var sb strings.Builder
	sb.WriteString(name)
	sb.WriteByte('{')
	for i, ln := range labelNames {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(ln)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	if extraName != "" {
		if len(labelNames) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(extraName)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(extraValue))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a float the way the exposition format expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseSamples parses a Prometheus text exposition (as Render writes
// it) into a map from full series name — including the {label="..."}
// suffix — to value. Comment and blank lines are skipped. It
// understands exactly the subset Render emits, which is all a
// cross-checking client (the e2e tests) needs.
func ParseSamples(r io.Reader) (map[string]float64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("telemetry: unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("telemetry: bad value in sample line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}
