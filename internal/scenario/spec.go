package scenario

import (
	"fmt"

	"photonrail/internal/exp"
	"photonrail/internal/model"
	"photonrail/internal/topo"
	"photonrail/internal/units"
	"photonrail/internal/workload"
)

// Spec is the wire-encodable, name-based form of a Grid: every
// dimension that is a rich struct in Grid (model presets, GPUs, fabric
// kinds, schedules, the NIC split) is carried by name or scalar, so a
// Spec marshals to compact JSON and travels the opusnet protocol to a
// raild daemon. Resolve turns it back into a Grid; SpecOf is the
// inverse. For preset-based grids the pair round-trips exactly. The
// serving layers key their request-level deduplication on the spec
// itself (AppendKey), so identical client specs share one key.
type Spec struct {
	Name           string        `json:"name,omitempty"`
	Models         []string      `json:"models,omitempty"`
	GPUs           []string      `json:"gpus,omitempty"`
	Fabrics        []string      `json:"fabrics,omitempty"`
	LatenciesMS    []float64     `json:"latenciesMS,omitempty"`
	Parallelisms   []Parallelism `json:"parallelisms,omitempty"`
	Schedules      []string      `json:"schedules,omitempty"`
	JitterFracs    []float64     `json:"jitterFracs,omitempty"`
	EagerRS        []bool        `json:"eagerRS,omitempty"`
	NICPorts       int           `json:"nicPorts,omitempty"`
	NICPerPortBps  int64         `json:"nicPerPortBps,omitempty"`
	Microbatches   int           `json:"microbatches,omitempty"`
	MicrobatchSize int           `json:"microbatchSize,omitempty"`
	Iterations     int           `json:"iterations,omitempty"`
}

// AppendKey writes every field of the spec, in declaration order, to a
// canonical key: photonrail.ExperimentKey, raild's cells singleflight
// and the fleet coordinator's grid singleflight all encode the spec
// through it. A nil and an empty list encode alike, as they resolve
// alike and travel alike (the wire omits empty lists). A field added to
// Spec or Parallelism must be added here too; the key completeness
// test fails until it is.
func (s Spec) AppendKey(e *exp.KeyEncoder) {
	e.String(s.Name)
	e.Strings(s.Models)
	e.Strings(s.GPUs)
	e.Strings(s.Fabrics)
	e.Float64s(s.LatenciesMS)
	e.Len(len(s.Parallelisms))
	for _, p := range s.Parallelisms {
		e.Int(p.TP)
		e.Int(p.DP)
		e.Int(p.PP)
		e.Int(p.CP)
		e.Int(p.EP)
	}
	e.Strings(s.Schedules)
	e.Float64s(s.JitterFracs)
	e.Bools(s.EagerRS)
	e.Int(s.NICPorts)
	e.Int64(s.NICPerPortBps)
	e.Int(s.Microbatches)
	e.Int(s.MicrobatchSize)
	e.Int(s.Iterations)
}

// ParseSchedule parses the CLI/wire spelling of a pipeline schedule.
func ParseSchedule(name string) (workload.Schedule, bool) {
	switch name {
	case workload.OneFOneB.String():
		return workload.OneFOneB, true
	case workload.GPipe.String():
		return workload.GPipe, true
	}
	return 0, false
}

// Resolve materializes the spec into a Grid, looking presets up by
// name. Unknown names are errors (the daemon rejects them before any
// simulation); empty dimensions stay empty, taking the Grid's paper
// defaults at expansion time.
func (s Spec) Resolve() (Grid, error) {
	g := Grid{
		Name:           s.Name,
		LatenciesMS:    append([]float64(nil), s.LatenciesMS...),
		Parallelisms:   append([]Parallelism(nil), s.Parallelisms...),
		JitterFracs:    append([]float64(nil), s.JitterFracs...),
		EagerRS:        append([]bool(nil), s.EagerRS...),
		Microbatches:   s.Microbatches,
		MicrobatchSize: s.MicrobatchSize,
		Iterations:     s.Iterations,
	}
	for _, name := range s.Models {
		m, ok := model.ByName(name)
		if !ok {
			return Grid{}, fmt.Errorf("scenario: unknown model %q", name)
		}
		g.Models = append(g.Models, m)
	}
	for _, name := range s.GPUs {
		gpu, ok := model.GPUByName(name)
		if !ok {
			return Grid{}, fmt.Errorf("scenario: unknown GPU %q", name)
		}
		g.GPUs = append(g.GPUs, gpu)
	}
	for _, name := range s.Fabrics {
		k, ok := FabricKindByName(name)
		if !ok {
			return Grid{}, fmt.Errorf("scenario: unknown fabric kind %q", name)
		}
		g.Fabrics = append(g.Fabrics, k)
	}
	for _, name := range s.Schedules {
		sched, ok := ParseSchedule(name)
		if !ok {
			return Grid{}, fmt.Errorf("scenario: unknown schedule %q", name)
		}
		g.Schedules = append(g.Schedules, sched)
	}
	if s.NICPorts != 0 || s.NICPerPortBps != 0 {
		g.NIC = topo.PortConfig{Ports: s.NICPorts, PerPort: units.Bandwidth(s.NICPerPortBps)}
		if err := g.NIC.Validate(); err != nil {
			return Grid{}, err
		}
	}
	return g, nil
}

// SpecOf renders a Grid as its wire form. Models and GPUs are carried
// by preset name, the NIC by its port count and exact per-port rate, so
// SpecOf(g).Resolve() reproduces g for preset-based grids.
func SpecOf(g Grid) Spec {
	s := Spec{
		Name:           g.Name,
		LatenciesMS:    append([]float64(nil), g.LatenciesMS...),
		Parallelisms:   append([]Parallelism(nil), g.Parallelisms...),
		JitterFracs:    append([]float64(nil), g.JitterFracs...),
		EagerRS:        append([]bool(nil), g.EagerRS...),
		Microbatches:   g.Microbatches,
		MicrobatchSize: g.MicrobatchSize,
		Iterations:     g.Iterations,
	}
	for _, m := range g.Models {
		s.Models = append(s.Models, m.Name)
	}
	for _, gpu := range g.GPUs {
		s.GPUs = append(s.GPUs, gpu.Name)
	}
	for _, k := range g.Fabrics {
		s.Fabrics = append(s.Fabrics, k.String())
	}
	for _, sched := range g.Schedules {
		s.Schedules = append(s.Schedules, sched.String())
	}
	if g.NIC != (topo.PortConfig{}) {
		s.NICPorts = g.NIC.Ports
		s.NICPerPortBps = int64(g.NIC.PerPort)
	}
	return s
}
