package ocs

import (
	"fmt"
	"math/rand"
	"testing"
)

// refSwitch is a map-based model of Switch: the installed circuits as a
// Matching, with the device's refusal rules written out plainly.
type refSwitch struct {
	radix   int
	current Matching
}

// matchingOf converts a pair list to a matching, refusing a circuit
// from a port to itself and a port listed twice.
func matchingOf(pairs [][2]Port) (Matching, error) {
	m := Matching{}
	for _, c := range pairs {
		if err := m.Connect(c[0], c[1]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func (r *refSwitch) setUp(pairs [][2]Port) error {
	m, err := matchingOf(pairs)
	if err != nil {
		return err
	}
	if err := m.ValidateRadix(r.radix); err != nil {
		return err
	}
	for a := range m {
		if _, ok := r.current[a]; ok {
			return fmt.Errorf("port %d connected", a)
		}
	}
	for a, b := range m {
		r.current[a] = b
	}
	return nil
}

func (r *refSwitch) tearDown(pairs [][2]Port) error {
	m, err := matchingOf(pairs)
	if err != nil {
		return err
	}
	for a, b := range m {
		if peer, ok := r.current[a]; !ok || peer != b {
			return fmt.Errorf("circuit %d<->%d not installed", a, b)
		}
	}
	for a := range m {
		delete(r.current, a)
	}
	return nil
}

// TestSwitchMatchesReferenceProperty drives a Switch and the map-based
// model through seeded random SetUp and TearDown sequences. Inputs mix
// installed and free circuits, ports at and past the radix,
// self-circuits and ports listed twice. After every call both must have
// refused or both accepted, and the switch's Current must be a valid
// matching equal to the model's.
func TestSwitchMatchesReferenceProperty(t *testing.T) {
	seeds, steps := 200, 300
	if testing.Short() {
		seeds = 40
	}
	const radix = 12
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSwitch("prop", radix)
		ref := &refSwitch{radix: radix, current: Matching{}}
		port := func() Port { return Port(rng.Intn(radix+2) - 1) } // -1 … radix
		randomPairs := func() [][2]Port {
			var pairs [][2]Port
			if rng.Intn(2) == 0 {
				// Some installed circuits, in either orientation.
				for _, c := range s.Current().AppendPairs(nil) {
					if rng.Intn(2) == 0 {
						if rng.Intn(2) == 0 {
							c[0], c[1] = c[1], c[0]
						}
						pairs = append(pairs, c)
					}
				}
			}
			for n := rng.Intn(4); n > 0; n-- {
				a, b := port(), port()
				if rng.Intn(8) != 0 {
					a, b = Port(rng.Intn(radix)), Port(rng.Intn(radix))
				}
				pairs = append(pairs, [2]Port{a, b})
			}
			if len(pairs) > 0 && rng.Intn(10) == 0 {
				pairs = append(pairs, pairs[rng.Intn(len(pairs))]) // listed twice
			}
			rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
			return pairs
		}
		for step := 0; step < steps; step++ {
			setUp, pairs := rng.Intn(2) == 0, randomPairs()
			op := fmt.Sprintf("TearDown(%v)", pairs)
			var got, want error
			if setUp {
				op = fmt.Sprintf("SetUp(%v)", pairs)
				got, want = s.SetUp(pairs), ref.setUp(pairs)
			} else {
				got, want = s.TearDown(pairs), ref.tearDown(pairs)
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("seed %d step %d: %s = %v; the model says %v", seed, step, op, got, want)
			}
			cur := s.Current()
			if err := cur.ValidateRadix(radix); err != nil {
				t.Fatalf("seed %d step %d: after %s Current() = %v is invalid: %v", seed, step, op, cur, err)
			}
			if !cur.Equal(ref.current) {
				t.Fatalf("seed %d step %d: after %s Current() = %v; the model has %v", seed, step, op, cur, ref.current)
			}
		}
	}
}
