package trace

import (
	"fmt"

	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/units"
)

// PhaseKey identifies a parallelism phase: the (axis, collective kind)
// pair its traffic belongs to.
type PhaseKey struct {
	Axis parallelism.Axis
	Kind parallelism.CollectiveKind
}

// String renders e.g. "FSDP/AG".
func (k PhaseKey) String() string { return fmt.Sprintf("%v/%v", k.Axis, k.Kind) }

func phaseKey(s Span) PhaseKey { return PhaseKey{Axis: s.Axis, Kind: s.Kind} }

// CommPhase is a maximal run of same-parallelism communication on one
// rail: the paper's P₁/P₂ "distinctive sets of communication groups".
// Two consecutive spans belong to the same phase when they share the
// parallelism axis and collective kind (e.g. the per-layer FSDP
// AllGather burst is one phase; the following pipeline Send/Recv is
// another).
type CommPhase struct {
	// Key characterizes the phase's traffic.
	Key PhaseKey
	// Spans are the member ops, sorted by start.
	Spans []Span
	// Start is the earliest T_comm_start, End the latest T_comm_end.
	Start, End units.Duration
	// Bytes is the total per-rank traffic of the phase.
	Bytes units.ByteSize
}

// Window is one inter-parallelism idle window: the gap between two
// consecutive phases on a rail, per the paper's definition
//
//	T_window = min_{comm_j ∈ P2} T_comm_j_start − max_{comm_i ∈ P1} T_comm_i_end.
//
// A non-positive Size means the phases overlapped (concurrent groups, as
// in Fig. 3b); such windows are recorded but offer no reconfiguration
// slack.
type Window struct {
	// After is the phase that ends the window. Its Bytes, the traffic
	// volume following the window, is the Fig. 4b categorization key.
	After *CommPhase
	// Size is the idle time between the phases.
	Size units.Duration
}

// Phases segments the scale-out spans of rail r in iteration iter into
// communication phases.
func (t *Trace) Phases(r topo.RailID, iter int) []*CommPhase {
	spans := t.RailSpans(r, iter)
	var phases []*CommPhase
	var cur *CommPhase
	for _, s := range spans {
		key := phaseKey(s)
		if cur == nil || cur.Key != key {
			cur = &CommPhase{Key: key, Start: s.Start, End: s.End}
			phases = append(phases, cur)
		}
		cur.Spans = append(cur.Spans, s)
		if s.Start < cur.Start {
			cur.Start = s.Start
		}
		if s.End > cur.End {
			cur.End = s.End
		}
		cur.Bytes += s.Bytes
	}
	return phases
}

// Windows extracts the inter-phase windows of rail r in iteration iter.
func (t *Trace) Windows(r topo.RailID, iter int) []Window {
	phases := t.Phases(r, iter)
	var out []Window
	for i := 1; i < len(phases); i++ {
		p1, p2 := phases[i-1], phases[i]
		out = append(out, Window{After: p2, Size: p2.Start - p1.End})
	}
	return out
}

// WindowSizesMS converts positive windows into millisecond samples, the
// unit of the Fig. 4a CDF.
func WindowSizesMS(ws []Window) []float64 {
	var out []float64
	for _, w := range ws {
		if w.Size > 0 {
			out = append(out, w.Size.Milliseconds())
		}
	}
	return out
}
