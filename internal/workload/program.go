// Package workload turns (model × parallelism × pipeline schedule ×
// hardware) into an executable training-iteration program: a
// deterministic DAG of compute and communication tasks that the network
// simulator executes. It is a miniature TorchTitan: 1F1B pipeline
// scheduling, per-layer FSDP AllGather/ReduceScatter with lazy issue
// semantics, pipeline Send/Recv, optimizer-step synchronization
// AllReduces, and TP collectives folded into compute (Fig. 3's "TP is
// hidden").
package workload

import (
	"fmt"
	"sync"

	"photonrail/internal/collective"
	"photonrail/internal/parallelism"
	"photonrail/internal/topo"
	"photonrail/internal/trace"
	"photonrail/internal/units"
)

// TaskID indexes a task within a Program. Dependencies always point to
// lower IDs, so the DAG is acyclic by construction.
type TaskID int

// TaskKind distinguishes compute from communication tasks.
type TaskKind int

// Task kinds.
const (
	Compute TaskKind = iota
	Collective
)

// Task is one node of the iteration DAG.
type Task struct {
	ID   TaskID
	Kind TaskKind
	// Label describes the op for traces, e.g. "F s0 mb2 L5".
	Label string
	// Deps must all complete before the task starts (for collectives,
	// this realizes the "starts when the slowest rank joins" barrier:
	// each participant contributes its own dependency chain).
	Deps []TaskID

	// GPU and Duration apply to compute tasks.
	GPU      topo.GPUID
	Duration units.Duration

	// Collective fields.
	CollKind parallelism.CollectiveKind
	Axis     parallelism.Axis
	Group    *collective.Group
	// Ranks are the actual participants; for Send/Recv this is the
	// {src, dst} pair while Group still names the circuit-owning ring.
	Ranks []topo.GPUID
	// Bytes is the per-rank payload.
	Bytes units.ByteSize
	// ScaleUp marks intra-node collectives that bypass the rails.
	ScaleUp bool
	// Rail is the rail the op uses (scale-out collectives only).
	Rail topo.RailID

	// Annotations for trace analysis.
	Iteration  int
	Microbatch int
	Phase      trace.PipePhase
}

// IsCollective reports whether the task is a communication op.
func (t *Task) IsCollective() bool { return t.Kind == Collective }

// Program is a complete multi-iteration training program.
//
// A Program is immutable once built and may be shared by any number of
// concurrent simulation runs (the staged pipeline compiles each
// workload once and reuses the Program across every fabric and latency
// variant). Programs are always handled by pointer; the lazily built
// runtime index below must not be copied.
type Program struct {
	// Cluster is the topology the program runs on.
	Cluster *topo.Cluster
	// Tasks in ID order.
	Tasks []*Task
	// Groups maps group name to the communication group. The groups
	// are numbered densely (collective.Group.ID); Index.Groups lists
	// them by number.
	Groups map[string]*collective.Group
	// Iterations is the iteration count.
	Iterations int

	idxOnce sync.Once
	idx     *Index
	valOnce sync.Once
	valErr  error
}

// Index is a Program's derived runtime index: the DAG structure every
// run re-derived per execution (successor lists, dependency indegrees)
// and the groups by number, computed once and shared, plus an
// attachment point for other per-program caches (the circuit tables).
// All fields are immutable after construction; Aux is internally
// synchronized. Treat Succ, Indeg and Groups as read-only — executors
// copy Indeg into per-run scratch before counting down.
type Index struct {
	// Succ[id] lists the tasks depending on id.
	Succ [][]TaskID
	// Indeg[id] is task id's dependency count.
	Indeg []int
	// Groups[n] is the program's group numbered n.
	Groups []*collective.Group

	mu  sync.Mutex
	aux map[any]any
}

// Index returns the program's runtime index, building it on first use.
// Safe for concurrent use; every caller sees the same index.
func (p *Program) Index() *Index {
	p.idxOnce.Do(func() {
		ix := &Index{
			Succ:   make([][]TaskID, len(p.Tasks)),
			Indeg:  make([]int, len(p.Tasks)),
			Groups: make([]*collective.Group, len(p.Groups)),
			aux:    make(map[any]any),
		}
		for _, g := range p.Groups {
			if g.ID >= 0 && g.ID < len(ix.Groups) {
				ix.Groups[g.ID] = g
			}
		}
		// Successor lists are carved from one flat buffer sized by a
		// counting pass, instead of n separately grown slices.
		nedges := 0
		for _, t := range p.Tasks {
			ix.Indeg[t.ID] = len(t.Deps)
			nedges += len(t.Deps)
		}
		buf := make([]TaskID, nedges)
		off := make([]int, len(p.Tasks))
		for _, t := range p.Tasks {
			for _, d := range t.Deps {
				off[d]++
			}
		}
		pos := 0
		for i, n := range off {
			ix.Succ[i] = buf[pos : pos : pos+n]
			pos += n
		}
		for _, t := range p.Tasks {
			for _, d := range t.Deps {
				ix.Succ[d] = append(ix.Succ[d], t.ID)
			}
		}
		p.idx = ix
	})
	return p.idx
}

// ValidIndex returns the program's runtime index once Validate has
// passed, or Validate's error. Both are computed once per program and
// shared, so a simulation run after the first pays for neither; the
// program must not change after its first ValidIndex call.
func (p *Program) ValidIndex() (*Index, error) {
	p.valOnce.Do(func() { p.valErr = p.Validate() })
	if p.valErr != nil {
		return nil, p.valErr
	}
	return p.Index(), nil
}

// Aux returns the per-program cache value under key, building it with
// build on first request. The comparable key identifies the cache (e.g.
// a port-plan value); build runs at most once per key and the built
// value is shared by all callers, so it must be safe for concurrent
// use.
func (ix *Index) Aux(key any, build func() any) any {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if v, ok := ix.aux[key]; ok {
		return v
	}
	v := build()
	ix.aux[key] = v
	return v
}

// Validate checks DAG structural invariants: dependencies point
// backwards, collectives have participants, groups are registered and
// numbered densely.
func (p *Program) Validate() error {
	numbered := make([]bool, len(p.Groups))
	for name, g := range p.Groups {
		if g.Name != name {
			return fmt.Errorf("workload: group %s registered as %s", g.Name, name)
		}
		if g.ID < 0 || g.ID >= len(numbered) || numbered[g.ID] {
			return fmt.Errorf("workload: group %s has number %d; %d groups need the numbers 0 to %d once each",
				name, g.ID, len(numbered), len(numbered)-1)
		}
		numbered[g.ID] = true
	}
	for _, t := range p.Tasks {
		for _, d := range t.Deps {
			if d >= t.ID || d < 0 {
				return fmt.Errorf("workload: task %d (%s) depends on %d", t.ID, t.Label, d)
			}
		}
		if t.Kind == Collective {
			if t.Group == nil {
				return fmt.Errorf("workload: collective %d (%s) has no group", t.ID, t.Label)
			}
			if len(t.Ranks) == 0 {
				return fmt.Errorf("workload: collective %d (%s) has no participants", t.ID, t.Label)
			}
			if p.Groups[t.Group.Name] != t.Group {
				return fmt.Errorf("workload: collective %d uses unregistered group %s", t.ID, t.Group.Name)
			}
			for _, r := range t.Ranks {
				if !p.Cluster.Contains(r) {
					return fmt.Errorf("workload: collective %d rank %d outside cluster", t.ID, r)
				}
				if !t.Group.Contains(r) {
					return fmt.Errorf("workload: collective %d rank %d outside group %s", t.ID, r, t.Group.Name)
				}
			}
		} else if !p.Cluster.Contains(t.GPU) {
			return fmt.Errorf("workload: compute task %d on GPU %d outside cluster", t.ID, t.GPU)
		}
	}
	return nil
}
