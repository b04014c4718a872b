package ocs

import (
	"fmt"

	"photonrail/internal/units"
)

// Switch is one optical circuit switch: a radix, the currently installed
// circuits, and per-port traffic pins. It enforces the paper's Objective 3
// safety rules at the device level:
//
//   - a circuit cannot be torn down while it carries traffic, and
//   - a new circuit cannot use a port that an ongoing circuit occupies.
//
// The Switch itself is passive about time: reconfiguration latency is the
// caller's (controller's) concern; the device only validates and applies.
type Switch struct {
	name string
	tech Technology
	// peer[p] is the port a circuit joins p to, or -1 while p has none:
	// the installed circuits, in one radix-sized slice.
	peer []Port
	// connected counts the ports in a circuit (twice the circuits).
	connected int
	// busy[p] counts the active transfers pinning port p; nil until the
	// first pin. pins counts the pins still held.
	busy     []int
	pins     int
	reconfig int // completed reconfigurations (telemetry)
}

// NewSwitch returns a switch of the given technology with no circuits.
func NewSwitch(name string, tech Technology) *Switch {
	peer := make([]Port, max(tech.Radix, 0))
	for i := range peer {
		peer[i] = -1
	}
	return &Switch{name: name, tech: tech, peer: peer}
}

// Name returns the switch's name (e.g. "rail0-ocs").
func (s *Switch) Name() string { return s.name }

// Technology returns the switch's technology entry.
func (s *Switch) Technology() Technology { return s.tech }

// Radix returns the port count.
func (s *Switch) Radix() int { return s.tech.Radix }

// ReconfigTime returns the technology's circuit set-up latency.
func (s *Switch) ReconfigTime() units.Duration { return s.tech.ReconfigTime }

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

// Reconfigurations returns how many Apply calls changed the matching.
func (s *Switch) Reconfigurations() int { return s.reconfig }

// peerOf returns the port a circuit joins a to, if any.
func (s *Switch) peerOf(a Port) (Port, bool) {
	if a < 0 || int(a) >= len(s.peer) || s.peer[a] < 0 {
		return 0, false
	}
	return s.peer[a], true
}

// Connected reports whether a live circuit joins ports a and b.
func (s *Switch) Connected(a, b Port) bool {
	peer, ok := s.peerOf(a)
	return ok && peer == b
}

// PinTraffic marks a transfer active on the circuit at port a (and its
// peer). It fails if no circuit is installed at a.
func (s *Switch) PinTraffic(a Port) error {
	b, ok := s.peerOf(a)
	if !ok {
		return fmt.Errorf("ocs %s: traffic on unconnected port %d", s.name, a)
	}
	if s.busy == nil {
		s.busy = make([]int, len(s.peer))
	}
	s.busy[a]++
	s.busy[b]++
	s.pins++
	return nil
}

// UnpinTraffic releases a PinTraffic.
func (s *Switch) UnpinTraffic(a Port) error {
	b, ok := s.peerOf(a)
	if !ok {
		return fmt.Errorf("ocs %s: unpin on unconnected port %d", s.name, a)
	}
	if !s.Busy(a) || !s.Busy(b) {
		return fmt.Errorf("ocs %s: unpin without pin on port %d", s.name, a)
	}
	s.busy[a]--
	s.busy[b]--
	s.pins--
	return nil
}

// Busy reports whether any transfer pins port a.
func (s *Switch) Busy(a Port) bool {
	return s.busy != nil && a >= 0 && int(a) < len(s.busy) && s.busy[a] > 0
}

// CanApply reports whether moving to next would disturb a busy circuit.
// It returns the first conflicting port for diagnostics.
func (s *Switch) CanApply(next Matching) (Port, bool) {
	if s.pins == 0 {
		return 0, true // no pinned traffic — nothing can conflict
	}
	tearDown, setUp := s.Current().Diff(next)
	for _, c := range tearDown {
		if s.Busy(c[0]) || s.Busy(c[1]) {
			return c[0], false
		}
	}
	for _, c := range setUp {
		// A set-up port can only be busy if it is part of a surviving
		// circuit, which Diff would have reported as a tear-down; this
		// check guards against matchings that double-use a port.
		if s.Busy(c[0]) || s.Busy(c[1]) {
			return c[0], false
		}
	}
	return 0, true
}

// Apply installs next as the new matching. It fails if next is invalid for
// the radix or conflicts with ongoing traffic. Applying an identical
// matching is a no-op and does not count as a reconfiguration.
func (s *Switch) Apply(next Matching) error {
	if err := next.ValidateRadix(s.tech.Radix); err != nil {
		return fmt.Errorf("ocs %s: %w", s.name, err)
	}
	if s.installed(next) {
		return nil
	}
	if p, ok := s.CanApply(next); !ok {
		return fmt.Errorf("ocs %s: reconfiguration conflicts with ongoing traffic on port %d", s.name, p)
	}
	for i := range s.peer {
		s.peer[i] = -1
	}
	for a, b := range next {
		s.peer[a] = b
	}
	s.connected = len(next)
	s.reconfig++
	return nil
}

// installed reports whether m is exactly the installed matching.
func (s *Switch) installed(m Matching) bool {
	if len(m) != s.connected {
		return false
	}
	for a, b := range m {
		if peer, ok := s.peerOf(a); !ok || peer != b {
			return false
		}
	}
	return true
}

// TearDown removes the circuits pairs lists from the switch in place.
// With SetUp it is the incremental form of Apply for a controller that
// reconfigures one communication group at a time (the Opus controller):
// no copy of the installed circuits, and no pass over the circuits the
// call leaves alone. A pair is a circuit's two ports in either order
// (Matching.AppendPairs lists a matching's). Like Apply it refuses to disturb
// a circuit that carries traffic; it also refuses a circuit that is not
// installed, including one listed twice. On error the switch is
// unchanged. TearDown and SetUp do not count toward Reconfigurations.
func (s *Switch) TearDown(pairs [][2]Port) error {
	for i, c := range pairs {
		a, b := c[0], c[1]
		var err error
		if peer, ok := s.peerOf(a); !ok || peer != b {
			err = fmt.Errorf("ocs %s: tear-down of uninstalled circuit %d<->%d", s.name, a, b)
		} else if s.Busy(a) || s.Busy(b) {
			err = fmt.Errorf("ocs %s: reconfiguration conflicts with ongoing traffic on port %d", s.name, a)
		}
		if err != nil {
			for _, d := range pairs[:i] {
				s.peer[d[0]], s.peer[d[1]] = d[1], d[0]
			}
			return err
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
			return fmt.Errorf("ocs %s: ocs: port %d matched to itself", s.name, c[0])
		}
		for _, p := range c {
			if p < 0 || int(p) >= len(s.peer) {
				return fmt.Errorf("ocs %s: ocs: port %d outside radix %d", s.name, p, s.tech.Radix)
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
