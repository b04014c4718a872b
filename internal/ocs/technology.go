// Package ocs models optical circuit switches: the port-matching device
// semantics (one-to-one circuits, set up and torn down in place) and the
// commercial technology catalog the paper surveys in Table 3.
package ocs

import (
	"fmt"

	"photonrail/internal/units"
)

// Technology describes one OCS switching technology from Table 3 of the
// paper: its reconfiguration latency and port radix, from vendor
// datasheets and prior work (paper refs [8,11,12,32,33,38,53,66,68]).
type Technology struct {
	// Name is the switching principle, e.g. "3D MEMS".
	Name string
	// Vendor is the example vendor the paper cites.
	Vendor string
	// ReconfigTime is the circuit set-up latency.
	ReconfigTime units.Duration
	// Radix is the port count of the largest available switch.
	Radix int
}

// String renders e.g. "3D MEMS (Calient)".
func (t Technology) String() string { return fmt.Sprintf("%s (%s)", t.Name, t.Vendor) }

// MaxGPUs returns the largest deployable GPU count for the given scale-up
// domain size under the paper's Table 3 sizing rule:
//
//	#GPUs = (GPUs in scale-up) × radix/2
//
// using the 2-port NIC configuration and bidirectional transceivers: each
// GPU consumes two OCS ports on its rail, so one switch serves radix/2
// GPU ranks per rail, i.e. radix/2 scale-up domains.
func (t Technology) MaxGPUs(scaleUpSize int) int {
	if scaleUpSize <= 0 {
		panic(fmt.Sprintf("ocs: scale-up size %d", scaleUpSize))
	}
	return scaleUpSize * t.Radix / 2
}

// The Table 3 technology catalog.
var (
	PLZT          = Technology{Name: "PLZT", Vendor: "EpiPhotonics", ReconfigTime: units.FromMilliseconds(0.00001), Radix: 16}
	SiP           = Technology{Name: "SiP", Vendor: "Lightmatter", ReconfigTime: units.FromMilliseconds(0.007), Radix: 32}
	RotorNet      = Technology{Name: "RotorNet", Vendor: "InFocus", ReconfigTime: units.FromMilliseconds(0.01), Radix: 128}
	MEMS3D        = Technology{Name: "3D MEMS", Vendor: "Calient", ReconfigTime: units.FromMilliseconds(15), Radix: 320}
	Piezo         = Technology{Name: "Piezo", Vendor: "Polatis", ReconfigTime: units.FromMilliseconds(25), Radix: 576}
	LiquidCrystal = Technology{Name: "Liquid crystal", Vendor: "Coherent", ReconfigTime: units.FromMilliseconds(100), Radix: 512}
	Robotic       = Technology{Name: "Robotic", Vendor: "Telescent", ReconfigTime: units.FromMilliseconds(120000), Radix: 1008}
)

// Catalog lists the Table 3 technologies in the paper's row order.
func Catalog() []Technology {
	return []Technology{PLZT, SiP, RotorNet, MEMS3D, Piezo, LiquidCrystal, Robotic}
}
