// Package trace records the communication activity of a simulated
// training run and derives the paper's §3.1 analyses from it: the
// per-rail communication pattern of Fig. 3, and the inter-parallelism
// window-size distribution of Fig. 4.
package trace

import (
	"fmt"
	"sort"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// PipePhase tags which pipeline-schedule stage a span belongs to
// (Fig. 3's warm-up / steady / cool-down / sync split).
type PipePhase int

// The Fig. 3 pipeline phases.
const (
	WarmUp PipePhase = iota
	Steady
	CoolDown
	Sync
)

// String names the phase as in Fig. 3.
func (p PipePhase) String() string {
	switch p {
	case WarmUp:
		return "warm-up"
	case Steady:
		return "steady"
	case CoolDown:
		return "cool-down"
	case Sync:
		return "sync"
	default:
		return fmt.Sprintf("PipePhase(%d)", int(p))
	}
}

// Span is one completed communication operation.
type Span struct {
	// Label identifies the op, e.g. "AG L3 s1".
	Label string
	// Kind is the collective type.
	Kind parallelism.CollectiveKind
	// Axis is the parallelism dimension that issued the op.
	Axis parallelism.Axis
	// Group names the communication group.
	Group string
	// Rail is the rail the op used; ScaleUpRail for intra-node traffic.
	Rail topo.RailID
	// Bytes is the per-rank payload.
	Bytes units.ByteSize
	// Start and End bound the op in virtual time. Start is the instant
	// the slowest rank joined (the paper's T_comm_start); End is common
	// to all ranks.
	Start, End units.Duration
	// Iteration is the training iteration index (0-based).
	Iteration int
	// Phase is the pipeline-schedule phase.
	Phase PipePhase
}

// ScaleUpRail marks spans that ran on the scale-up interconnect rather
// than any rail.
const ScaleUpRail topo.RailID = -1

// Trace accumulates spans. The zero value is ready to use.
type Trace struct {
	spans []Span
}

// Add records a span.
func (t *Trace) Add(s Span) { t.spans = append(t.spans, s) }

// Clone returns an independent copy: the two traces share no span
// storage, so mutating one never affects the other.
func (t *Trace) Clone() *Trace {
	out := &Trace{spans: make([]Span, len(t.spans))}
	copy(out.spans, t.spans)
	return out
}

// Len returns the span count.
func (t *Trace) Len() int { return len(t.spans) }

// Spans returns all spans sorted by (Start, End, Label).
func (t *Trace) Spans() []Span {
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	sortSpans(out)
	return out
}

// RailSpans returns the scale-out spans on rail r (optionally restricted
// to iteration iter; pass -1 for all), sorted by start time.
func (t *Trace) RailSpans(r topo.RailID, iter int) []Span {
	var out []Span
	for _, s := range t.spans {
		if s.Rail != r {
			continue
		}
		if iter >= 0 && s.Iteration != iter {
			continue
		}
		out = append(out, s)
	}
	sortSpans(out)
	return out
}

// Iterations returns the number of distinct iterations recorded.
func (t *Trace) Iterations() int {
	max := -1
	for _, s := range t.spans {
		if s.Iteration > max {
			max = s.Iteration
		}
	}
	return max + 1
}

// Rails returns the sorted list of rails with at least one span.
func (t *Trace) Rails() []topo.RailID {
	seen := make(map[topo.RailID]bool)
	for _, s := range t.spans {
		if s.Rail != ScaleUpRail {
			seen[s.Rail] = true
		}
	}
	out := make([]topo.RailID, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		if spans[i].End != spans[j].End {
			return spans[i].End < spans[j].End
		}
		return spans[i].Label < spans[j].Label
	})
}
