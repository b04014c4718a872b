// Package cost reproduces the paper's Fig. 7 analysis: the capital cost
// and power draw of the GPU-backend network under three designs —
// a full-bisection fat-tree, the rail-optimized electrical fabric, and
// Opus's flat photonic rails — following the component-counting
// methodology of Rail-only [71] and TopoOpt [72].
//
// Each design yields a bill of materials (switches, optical circuit
// switches, transceivers); unit prices and powers live in one catalog
// annotated with the paper's sources [15, 16, 44, 53]. Savings are
// computed from the BOMs, never hard-coded.
package cost

import (
	"fmt"

	"photonrail/internal/units"
)

// Device is one catalog entry.
type Device struct {
	// Name describes the part.
	Name string
	// Price is the unit price.
	Price units.Dollars
	// Power is the unit power draw.
	Power units.Watts
}

// Catalog holds the unit prices/powers the BOMs are priced with.
type Catalog struct {
	// Switch is a 64×400GbE electrical packet switch (Tomahawk-4 class,
	// e.g. FS N9510-64D [16]).
	Switch Device
	// SwitchRadix is the electrical switch port count.
	SwitchRadix int
	// Transceiver400 is a 400G pluggable transceiver (e.g. 400G XDR4
	// [15]) used at electrical switch and NIC ports.
	Transceiver400 Device
	// Transceiver200 is a 200G linear-drive (DSP-free) transceiver used
	// at the GPU NIC in the Opus design's 2-port configuration [44]; the
	// end-to-end optical path needs no OEO conversion, so low-power
	// linear optics suffice.
	Transceiver200 Device
	// OCS is an optical circuit switch (Polatis/Calient class [53]);
	// its ports are passive (no transceivers).
	OCS Device
	// OCSRadix is the OCS port count.
	OCSRadix int
}

// DefaultCatalog returns volume unit pricing consistent with the paper's
// cited sources. Absolute dollars are indicative; Fig. 7's claim is the
// relative ordering and the savings percentages.
func DefaultCatalog() Catalog {
	return Catalog{
		Switch:         Device{Name: "64x400G electrical switch", Price: 23_000, Power: 1850},
		SwitchRadix:    64,
		Transceiver400: Device{Name: "400G transceiver", Price: 300, Power: 12},
		Transceiver200: Device{Name: "200G linear-drive transceiver", Price: 150, Power: 2.5},
		OCS:            Device{Name: "384-port OCS", Price: 60_000, Power: 50},
		OCSRadix:       384,
	}
}

// Validate checks the catalog is usable.
func (c Catalog) Validate() error {
	if c.SwitchRadix <= 0 || c.SwitchRadix%2 != 0 {
		return fmt.Errorf("cost: switch radix %d", c.SwitchRadix)
	}
	if c.OCSRadix <= 0 {
		return fmt.Errorf("cost: OCS radix %d", c.OCSRadix)
	}
	if c.Switch.Price <= 0 || c.Transceiver400.Price <= 0 || c.Transceiver200.Price <= 0 || c.OCS.Price <= 0 {
		return fmt.Errorf("cost: non-positive price in catalog")
	}
	return nil
}

// LineItem is one BOM row.
type LineItem struct {
	Device Device
	Count  int
}

// BOM is a design's bill of materials.
type BOM struct {
	// Design names the fabric.
	Design string
	// GPUs is the cluster size the BOM serves.
	GPUs int
	// Items are the component counts.
	Items []LineItem
}

// TotalCost sums price × count.
func (b BOM) TotalCost() units.Dollars {
	var total units.Dollars
	for _, it := range b.Items {
		total += it.Device.Price * units.Dollars(it.Count)
	}
	return total
}

// TotalPower sums power × count.
func (b BOM) TotalPower() units.Watts {
	var total units.Watts
	for _, it := range b.Items {
		total += it.Device.Power * units.Watts(it.Count)
	}
	return total
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FatTree builds the full-bisection fat-tree BOM for n GPUs (one 400G
// NIC port each). Beyond a single switch it is the conventional pod-based
// 3-tier fat-tree (edge/aggregation/core) datacenters deploy at these
// scales. Every electrical link carries a transceiver at each end,
// including the NIC end.
func FatTree(n int, cat Catalog) (BOM, error) {
	if err := cat.Validate(); err != nil {
		return BOM{}, err
	}
	if n <= 0 {
		return BOM{}, fmt.Errorf("cost: %d GPUs", n)
	}
	half := cat.SwitchRadix / 2
	var switches, links int
	if n <= cat.SwitchRadix {
		switches = 1
		links = n
	} else {
		// 3-tier fat-tree: edge, aggregation, core.
		edge := ceilDiv(n, half)
		agg := edge
		core := ceilDiv(n, cat.SwitchRadix)
		switches = edge + agg + core
		links = 3 * n
	}
	return BOM{
		Design: "fat-tree",
		GPUs:   n,
		Items: []LineItem{
			{cat.Switch, switches},
			{cat.Transceiver400, 2 * links},
		},
	}, nil
}

// RailOptimized builds the electrical rail-optimized BOM: gpusPerNode
// rails, each a (possibly 2-tier) packet-switched network joining the
// same-rank GPUs of every scale-up domain at 400G.
func RailOptimized(n, gpusPerNode int, cat Catalog) (BOM, error) {
	if err := cat.Validate(); err != nil {
		return BOM{}, err
	}
	if n <= 0 || gpusPerNode <= 0 || n%gpusPerNode != 0 {
		return BOM{}, fmt.Errorf("cost: %d GPUs with %d per node", n, gpusPerNode)
	}
	nodes := n / gpusPerNode
	half := cat.SwitchRadix / 2
	var switchesPerRail, linksPerRail int
	switch {
	case nodes <= cat.SwitchRadix:
		switchesPerRail = 1
		linksPerRail = nodes
	case nodes <= half*cat.SwitchRadix:
		leaves := ceilDiv(nodes, half)
		spines := ceilDiv(leaves*half, cat.SwitchRadix)
		switchesPerRail = leaves + spines
		linksPerRail = 2 * nodes
	default:
		return BOM{}, fmt.Errorf("cost: rail of %d nodes exceeds 2-tier reach", nodes)
	}
	return BOM{
		Design: "rail-optimized",
		GPUs:   n,
		Items: []LineItem{
			{cat.Switch, gpusPerNode * switchesPerRail},
			{cat.Transceiver400, 2 * gpusPerNode * linksPerRail},
		},
	}, nil
}

// Opus builds the photonic-rail BOM: per rail, enough OCS ports for two
// per GPU (the 2-port NIC configuration of Table 3), no electrical
// switches, and DSP-free 200G transceivers at the NIC only — OCS ports
// are passive.
func Opus(n, gpusPerNode int, cat Catalog) (BOM, error) {
	if err := cat.Validate(); err != nil {
		return BOM{}, err
	}
	if n <= 0 || gpusPerNode <= 0 || n%gpusPerNode != 0 {
		return BOM{}, fmt.Errorf("cost: %d GPUs with %d per node", n, gpusPerNode)
	}
	nodes := n / gpusPerNode
	ocsPerRail := ceilDiv(2*nodes, cat.OCSRadix)
	return BOM{
		Design: "Opus",
		GPUs:   n,
		Items: []LineItem{
			{cat.OCS, gpusPerNode * ocsPerRail},
			{cat.Transceiver200, 2 * n},
		},
	}, nil
}

// Savings returns the fractional cost and power reduction of b relative
// to a (positive = b is cheaper / lower power).
func Savings(a, b BOM) (costFrac, powerFrac float64) {
	if ac := a.TotalCost(); ac > 0 {
		costFrac = 1 - float64(b.TotalCost())/float64(ac)
	}
	if ap := a.TotalPower(); ap > 0 {
		powerFrac = 1 - float64(b.TotalPower())/float64(ap)
	}
	return costFrac, powerFrac
}

// Fig7Row is one x-axis point of Fig. 7.
type Fig7Row struct {
	GPUs    int
	FatTree BOM
	Rail    BOM
	Opus    BOM
}

// Fig7 evaluates the three designs at the paper's cluster sizes
// (DGX H200: 8 GPUs per node).
func Fig7(sizes []int, gpusPerNode int, cat Catalog) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, n := range sizes {
		ft, err := FatTree(n, cat)
		if err != nil {
			return nil, err
		}
		rail, err := RailOptimized(n, gpusPerNode, cat)
		if err != nil {
			return nil, err
		}
		op, err := Opus(n, gpusPerNode, cat)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{GPUs: n, FatTree: ft, Rail: rail, Opus: op})
	}
	return rows, nil
}

// PaperSizes are Fig. 7's x-axis points.
func PaperSizes() []int { return []int{1024, 2048, 4096, 8192} }
