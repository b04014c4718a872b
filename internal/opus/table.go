package opus

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"photonrail/internal/collective"
	"photonrail/internal/ocs"
	"photonrail/internal/topo"
)

// CircuitTable holds a PortPlan's circuit derivations for a numbered
// set of communication groups: one immutable entry per group, indexed
// by the group's number (collective.Group.ID), and a conflict bit
// matrix over the groups. The ring matching of a group — and whether
// two groups' matchings collide — is a pure function of the plan and
// the group membership, yet the controller and the provisioning path
// consult both on every collective; the table derives each once.
//
// A table is shared across every simulation run of one compiled
// program, so a latency sweep derives the circuits once, not once per
// (latency, pass). It is safe for concurrent use, and lookups take no
// lock: entries never change, and Add publishes a longer entry list
// atomically.
//
// Matchings returned by CircuitsFor are shared: callers must treat them
// as read-only.
type CircuitTable struct {
	plan PortPlan
	// words is the length of a port bitmask, in 64-bit words.
	words int
	// entries points at the entry list; entry n is the group numbered n.
	entries atomic.Pointer[[]entry]
	// mu serializes Add.
	mu sync.Mutex
}

// entry is one group's circuits under the table's plan.
type entry struct {
	group *collective.Group
	id    int
	// circuits is the group's ring matching, and pairs the same
	// circuits as ascending (low, high) port pairs, the form
	// ocs.Switch.SetUp and TearDown take.
	circuits ocs.Matching
	pairs    [][2]ocs.Port
	// ports has bit p set for every switch port the circuits use.
	ports []uint64
	// conflicts is row id of the table's lower-triangular conflict
	// matrix: bit m, for every m <= id, is set when group m's circuits
	// share a port with this group's.
	conflicts []uint64
	// err is why the group has no circuits under the plan.
	err error
}

// NewCircuitTable builds the table of plan over groups, where groups[n]
// is the group numbered n. A group listed under another position than
// its number is not in the table, and neither is a nil one.
func NewCircuitTable(plan PortPlan, groups []*collective.Group) *CircuitTable {
	t := &CircuitTable{plan: plan}
	planErr := plan.Validate()
	if planErr == nil {
		t.words = (plan.Radix() + 63) / 64
	}
	es := make([]entry, len(groups))
	npairs, nrows := 0, 0
	for n, g := range groups {
		e := &es[n]
		e.id = n
		if g == nil || g.ID != n {
			continue
		}
		e.group = g
		if e.err = planErr; e.err == nil {
			e.circuits, e.err = plan.CircuitsFor(g)
		}
		npairs += len(e.circuits) / 2
		nrows += n/64 + 1
	}
	// Every entry's pairs, bitmask and conflict row are carved from two
	// flat buffers.
	pairs := make([][2]ocs.Port, 0, npairs)
	bits := make([]uint64, len(es)*t.words+nrows)
	for n := range es {
		e := &es[n]
		if e.group == nil {
			continue
		}
		from := len(pairs)
		pairs = e.circuits.AppendPairs(pairs)
		e.pairs = pairs[from:len(pairs):len(pairs)]
		e.ports, bits = bits[:t.words:t.words], bits[t.words:]
		e.markPorts()
		w := n/64 + 1
		e.conflicts, bits = bits[:w:w], bits[w:]
		e.markConflicts(es[:n+1])
	}
	t.entries.Store(&es)
	return t
}

// markPorts sets e's bitmask from its pairs.
func (e *entry) markPorts() {
	for _, c := range e.pairs {
		for _, p := range c {
			e.ports[p/64] |= 1 << (p % 64)
		}
	}
}

// markConflicts sets e's conflict row against es, the entries numbered
// up to and including e's.
func (e *entry) markConflicts(es []entry) {
	for m := range es {
		o := &es[m]
		if o.group == nil {
			continue
		}
		for k := range e.ports {
			if e.ports[k]&o.ports[k] != 0 {
				e.conflicts[m/64] |= 1 << (m % 64)
				break
			}
		}
	}
}

// conflictsWith reports whether e's and o's circuits share a port, so
// they cannot be installed together. Both must come from one table.
func (e *entry) conflictsWith(o *entry) bool {
	if e.id < o.id {
		e, o = o, e
	}
	return e.conflicts[o.id/64]&(1<<(o.id%64)) != 0
}

// Plan returns the port plan the table derives circuits from.
func (t *CircuitTable) Plan() PortPlan { return t.plan }

// entry returns g's entry, or an error when g is not in the table.
func (t *CircuitTable) entry(g *collective.Group) (*entry, error) {
	es := *t.entries.Load()
	if g.ID < 0 || g.ID >= len(es) || es[g.ID].group != g {
		return nil, fmt.Errorf("opus: group %s (number %d) is not in the circuit table", g.Name, g.ID)
	}
	return &es[g.ID], nil
}

// Add appends g's entry to the table. g must carry the table's next
// number, and its circuits must be derivable under the plan; otherwise
// Add refuses it and the table is unchanged.
func (t *CircuitTable) Add(g *collective.Group) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := *t.entries.Load()
	n := len(old)
	if g.ID != n {
		return fmt.Errorf("opus: group %s has number %d, the circuit table's next is %d", g.Name, g.ID, n)
	}
	if err := t.plan.Validate(); err != nil {
		return err
	}
	circuits, err := t.plan.CircuitsFor(g)
	if err != nil {
		return err
	}
	es := make([]entry, n+1)
	copy(es, old)
	e := &es[n]
	*e = entry{
		group:     g,
		id:        n,
		circuits:  circuits,
		pairs:     circuits.AppendPairs(nil),
		ports:     make([]uint64, t.words),
		conflicts: make([]uint64, n/64+1),
	}
	e.markPorts()
	e.markConflicts(es)
	t.entries.Store(&es)
	return nil
}

// CircuitsFor is PortPlan.CircuitsFor for a group in the table, derived
// when the table was built. A derivation error is kept too: retrying
// cannot succeed.
func (t *CircuitTable) CircuitsFor(g *collective.Group) (ocs.Matching, error) {
	e, err := t.entry(g)
	if err != nil {
		return nil, err
	}
	return e.circuits, e.err
}

// CircuitsBetween is PortPlan.CircuitsBetween over the circuits of g, a
// group in the table, looked up in its pairs.
func (t *CircuitTable) CircuitsBetween(g *collective.Group, a, b topo.GPUID) (int, error) {
	e, err := t.entry(g)
	if err != nil {
		return 0, err
	}
	if e.err != nil {
		return 0, e.err
	}
	count := 0
	for j := 0; j < t.plan.ringPairs(); j++ {
		for _, c := range [2][2]ocs.Port{
			{t.plan.TxPort(a, j), t.plan.RxPort(b, j)},
			{t.plan.TxPort(b, j), t.plan.RxPort(a, j)},
		} {
			if c[1] < c[0] {
				c[0], c[1] = c[1], c[0]
			}
			if slices.Contains(e.pairs, c) {
				count++
			}
		}
	}
	return count, nil
}

// GroupsConflict is PortPlan.GroupsConflict for two groups in the
// table, read from its conflict matrix.
func (t *CircuitTable) GroupsConflict(a, b *collective.Group) (bool, error) {
	ea, err := t.entry(a)
	if err != nil {
		return false, err
	}
	eb, err := t.entry(b)
	if err != nil {
		return false, err
	}
	if ea.err != nil {
		return false, ea.err
	}
	if eb.err != nil {
		return false, eb.err
	}
	return ea.conflictsWith(eb), nil
}
