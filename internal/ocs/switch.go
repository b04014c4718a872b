package ocs

import "fmt"

// Switch is one optical circuit switch: a radix and the currently
// installed circuits. It refuses a reconfiguration that would leave the
// circuits malformed: a port outside the radix, a circuit from a port to
// itself, a port in two circuits, or the tear-down of a circuit that is
// not installed. Whether a circuit still carries traffic is not the
// device's concern: the Opus controller tears a group's circuits down
// only once the group has no transfer in flight (Objective 3).
//
// The Switch itself is passive about time: reconfiguration latency is the
// caller's (controller's) concern; the device only validates and applies.
type Switch struct {
	name string
	// peer[p] is the port a circuit joins p to, or -1 while p has none:
	// the installed circuits, in one radix-sized slice.
	peer []Port
	// connected counts the ports in a circuit (twice the circuits).
	connected int
}

// NewSwitch returns a switch of the given port count with no circuits.
func NewSwitch(name string, radix int) *Switch {
	peer := make([]Port, max(radix, 0))
	for i := range peer {
		peer[i] = -1
	}
	return &Switch{name: name, peer: peer}
}

// Current returns the installed circuits as a new matching.
func (s *Switch) Current() Matching {
	m := make(Matching, s.connected)
	for a, b := range s.peer {
		if b >= 0 {
			m[Port(a)] = b
		}
	}
	return m
}

// TearDown removes the circuits pairs lists from the switch in place,
// for a controller that reconfigures one communication group at a time
// (the Opus controller): no copy of the installed circuits, and no pass
// over the circuits the call leaves alone. A pair is a circuit's two
// ports in either order (Matching.AppendPairs lists a matching's). It
// refuses a circuit that is not installed, including one listed twice.
// On error the switch is unchanged.
func (s *Switch) TearDown(pairs [][2]Port) error {
	for i, c := range pairs {
		a, b := c[0], c[1]
		if a < 0 || int(a) >= len(s.peer) || b < 0 || s.peer[a] != b {
			for _, d := range pairs[:i] {
				s.peer[d[0]], s.peer[d[1]] = d[1], d[0]
			}
			return fmt.Errorf("ocs %s: tear-down of uninstalled circuit %d<->%d", s.name, a, b)
		}
		s.peer[a], s.peer[b] = -1, -1
	}
	s.connected -= 2 * len(pairs)
	return nil
}

// SetUp adds the circuits pairs lists to the switch in place; see
// TearDown. It refuses a port outside the radix, a circuit from a port
// to itself, and a port that is already in a circuit, including one
// that an earlier pair of the call connects. On error the switch is
// unchanged.
func (s *Switch) SetUp(pairs [][2]Port) error {
	for _, c := range pairs {
		if c[0] == c[1] {
			return fmt.Errorf("ocs %s: port %d matched to itself", s.name, c[0])
		}
		for _, p := range c {
			if p < 0 || int(p) >= len(s.peer) {
				return fmt.Errorf("ocs %s: port %d outside radix %d", s.name, p, len(s.peer))
			}
		}
	}
	for i, c := range pairs {
		a, b := c[0], c[1]
		for _, p := range c {
			if peer := s.peer[p]; peer >= 0 {
				for _, d := range pairs[:i] {
					s.peer[d[0]], s.peer[d[1]] = -1, -1
				}
				return fmt.Errorf("ocs %s: port %d already connected to %d", s.name, p, peer)
			}
		}
		s.peer[a], s.peer[b] = b, a
	}
	s.connected += 2 * len(pairs)
	return nil
}
