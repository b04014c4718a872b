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

// Peer returns the port connected to a, if any.
func (m Matching) Peer(a Port) (Port, bool) {
	b, ok := m[a]
	return b, ok
}

// Validate checks the involution invariants: symmetric and fixed-point
// free. A Matching built through Connect always passes; one assembled
// as a map literal need not.
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
