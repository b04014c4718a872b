package ocs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Port is a switch port index in [0, radix).
type Port int

// Matching is a set of optical circuits: a symmetric, fixed-point-free
// partial involution over ports. Matching[a] == b means a circuit connects
// port a to port b (and necessarily Matching[b] == a).
type Matching map[Port]Port

// NewRingMatching returns the matching that embeds a unidirectional ring
// over the given node ports using two ports per member: member i's "tx"
// port connects to member (i+1 mod n)'s "rx" port. txPort and rxPort map
// a member index to its two switch ports.
//
// This is the circuit shape Opus installs for ring-based collectives: a
// physical ring over the scale-up domains a communication group spans
// (paper §5, "Optical rails form a physical ring connecting GPUs of the
// same rank in scale-out").
func NewRingMatching(members []int, txPort, rxPort func(member int) Port) (Matching, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("ocs: ring over %d members", len(members))
	}
	m := Matching{}
	for i, a := range members {
		b := members[(i+1)%len(members)]
		if err := m.Connect(txPort(a), rxPort(b)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Connect adds the circuit (a, b). It fails if either port is already in
// a circuit or a == b.
func (m Matching) Connect(a, b Port) error {
	if a == b {
		return fmt.Errorf("ocs: circuit from port %d to itself", a)
	}
	if peer, ok := m[a]; ok {
		return fmt.Errorf("ocs: port %d already connected to %d", a, peer)
	}
	if peer, ok := m[b]; ok {
		return fmt.Errorf("ocs: port %d already connected to %d", b, peer)
	}
	m[a] = b
	m[b] = a
	return nil
}

// Disconnect removes the circuit containing port a, if any.
func (m Matching) Disconnect(a Port) {
	if b, ok := m[a]; ok {
		delete(m, a)
		delete(m, b)
	}
}

// Peer returns the port connected to a, if any.
func (m Matching) Peer(a Port) (Port, bool) {
	b, ok := m[a]
	return b, ok
}

// Circuits returns the circuit count (half the connected-port count).
func (m Matching) Circuits() int { return len(m) / 2 }

// Validate checks the involution invariants: symmetric and fixed-point
// free. A valid Matching built through Connect always passes; Validate
// guards matchings deserialized from the control-plane wire format.
func (m Matching) Validate() error {
	for a, b := range m {
		if a == b {
			return fmt.Errorf("ocs: port %d matched to itself", a)
		}
		if back, ok := m[b]; !ok || back != a {
			return fmt.Errorf("ocs: asymmetric matching %d->%d", a, b)
		}
	}
	return nil
}

// ValidateRadix additionally checks all ports are within [0, radix).
func (m Matching) ValidateRadix(radix int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for a := range m {
		if a < 0 || int(a) >= radix {
			return fmt.Errorf("ocs: port %d outside radix %d", a, radix)
		}
	}
	return nil
}

// Equal reports whether two matchings contain exactly the same circuits.
func (m Matching) Equal(o Matching) bool {
	if len(m) != len(o) {
		return false
	}
	for a, b := range m {
		if ob, ok := o[a]; !ok || ob != b {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (m Matching) Clone() Matching {
	c := make(Matching, len(m))
	for a, b := range m {
		c[a] = b
	}
	return c
}

// Diff returns the circuits to tear down (in m but not in next) and to set
// up (in next but not in m), as canonical (low, high) port pairs. A
// reconfiguration's cost and conflict analysis operate on this diff: only
// the circuits actually changing are affected (paper §5, reconfiguration
// at the granularity of communication groups, not whole switches).
func (m Matching) Diff(next Matching) (tearDown, setUp [][2]Port) {
	for a, b := range m {
		if a > b {
			continue
		}
		if nb, ok := next[a]; !ok || nb != b {
			tearDown = append(tearDown, [2]Port{a, b})
		}
	}
	for a, b := range next {
		if a > b {
			continue
		}
		if ob, ok := m[a]; !ok || ob != b {
			setUp = append(setUp, [2]Port{a, b})
		}
	}
	sortPairs(tearDown)
	sortPairs(setUp)
	return tearDown, setUp
}

func sortPairs(ps [][2]Port) {
	slices.SortFunc(ps, func(x, y [2]Port) int {
		if c := cmp.Compare(x[0], y[0]); c != 0 {
			return c
		}
		return cmp.Compare(x[1], y[1])
	})
}

// AppendPairs appends the circuits to dst as canonical (low, high)
// port pairs in ascending order, the form Switch.SetUp and
// Switch.TearDown take, and returns the extended slice.
func (m Matching) AppendPairs(dst [][2]Port) [][2]Port {
	from := len(dst)
	for a, b := range m {
		if a < b {
			dst = append(dst, [2]Port{a, b})
		}
	}
	sortPairs(dst[from:])
	return dst
}

// String renders the circuits as "0<->5 1<->4", sorted, for logs and tests.
func (m Matching) String() string {
	pairs := m.AppendPairs(nil)
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("%d<->%d", p[0], p[1])
	}
	return strings.Join(parts, " ")
}
