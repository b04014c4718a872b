package ocs

import (
	"fmt"

	"photonrail/internal/units"
)

// Switch is one optical circuit switch: a radix, the currently installed
// matching, and per-port traffic pins. It enforces the paper's Objective 3
// safety rules at the device level:
//
//   - a circuit cannot be torn down while it carries traffic, and
//   - a new circuit cannot use a port that an ongoing circuit occupies.
//
// The Switch itself is passive about time: reconfiguration latency is the
// caller's (controller's) concern; the device only validates and applies.
type Switch struct {
	name     string
	tech     Technology
	current  Matching
	busy     map[Port]int // active transfers pinning each port
	reconfig int          // completed reconfigurations (telemetry)
}

// NewSwitch returns a switch of the given technology with no circuits.
func NewSwitch(name string, tech Technology) *Switch {
	return &Switch{
		name:    name,
		tech:    tech,
		current: Matching{},
		busy:    make(map[Port]int),
	}
}

// Name returns the switch's name (e.g. "rail0-ocs").
func (s *Switch) Name() string { return s.name }

// Technology returns the switch's technology entry.
func (s *Switch) Technology() Technology { return s.tech }

// Radix returns the port count.
func (s *Switch) Radix() int { return s.tech.Radix }

// ReconfigTime returns the technology's circuit set-up latency.
func (s *Switch) ReconfigTime() units.Duration { return s.tech.ReconfigTime }

// Current returns a copy of the installed matching.
func (s *Switch) Current() Matching { return s.current.Clone() }

// Reconfigurations returns how many Apply calls changed the matching.
func (s *Switch) Reconfigurations() int { return s.reconfig }

// Connected reports whether a live circuit joins ports a and b.
func (s *Switch) Connected(a, b Port) bool {
	peer, ok := s.current.Peer(a)
	return ok && peer == b
}

// PinTraffic marks a transfer active on the circuit at port a (and its
// peer). It fails if no circuit is installed at a.
func (s *Switch) PinTraffic(a Port) error {
	b, ok := s.current.Peer(a)
	if !ok {
		return fmt.Errorf("ocs %s: traffic on unconnected port %d", s.name, a)
	}
	s.busy[a]++
	s.busy[b]++
	return nil
}

// UnpinTraffic releases a PinTraffic.
func (s *Switch) UnpinTraffic(a Port) error {
	b, ok := s.current.Peer(a)
	if !ok {
		return fmt.Errorf("ocs %s: unpin on unconnected port %d", s.name, a)
	}
	if s.busy[a] <= 0 || s.busy[b] <= 0 {
		return fmt.Errorf("ocs %s: unpin without pin on port %d", s.name, a)
	}
	s.busy[a]--
	s.busy[b]--
	if s.busy[a] == 0 {
		delete(s.busy, a)
	}
	if s.busy[b] == 0 {
		delete(s.busy, b)
	}
	return nil
}

// Busy reports whether any transfer pins port a.
func (s *Switch) Busy(a Port) bool { return s.busy[a] > 0 }

// CanApply reports whether moving to next would disturb a busy circuit.
// It returns the first conflicting port for diagnostics.
func (s *Switch) CanApply(next Matching) (Port, bool) {
	if len(s.busy) == 0 {
		return 0, true // no pinned traffic — nothing can conflict
	}
	tearDown, setUp := s.current.Diff(next)
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
	if s.current.Equal(next) {
		return nil
	}
	if p, ok := s.CanApply(next); !ok {
		return fmt.Errorf("ocs %s: reconfiguration conflicts with ongoing traffic on port %d", s.name, p)
	}
	s.current = next.Clone()
	s.reconfig++
	return nil
}

// TearDown removes m's circuits from the installed matching in place.
// With SetUp it is the incremental form of Apply for a controller that
// reconfigures one communication group at a time (the Opus controller):
// no copy of the installed matching, and no pass over the circuits m
// leaves alone. Like Apply it refuses to disturb a circuit that carries
// traffic; it also refuses a circuit of m that is not installed. On
// error the switch is unchanged. TearDown and SetUp do not count toward
// Reconfigurations.
func (s *Switch) TearDown(m Matching) error {
	for a, b := range m {
		if peer, ok := s.current[a]; !ok || peer != b {
			return fmt.Errorf("ocs %s: tear-down of uninstalled circuit %d<->%d", s.name, a, b)
		}
		if s.Busy(a) {
			return fmt.Errorf("ocs %s: reconfiguration conflicts with ongoing traffic on port %d", s.name, a)
		}
	}
	for a := range m {
		delete(s.current, a)
	}
	return nil
}

// SetUp adds m's circuits to the installed matching in place; see
// TearDown. It refuses a matching that is invalid for the radix and a
// port that is already in a circuit. On error the switch is unchanged.
func (s *Switch) SetUp(m Matching) error {
	if err := m.ValidateRadix(s.tech.Radix); err != nil {
		return fmt.Errorf("ocs %s: %w", s.name, err)
	}
	for a := range m {
		if peer, ok := s.current[a]; ok {
			return fmt.Errorf("ocs %s: port %d already connected to %d", s.name, a, peer)
		}
	}
	for a, b := range m {
		s.current[a] = b
	}
	return nil
}
