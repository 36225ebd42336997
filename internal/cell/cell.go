// Package cell models a 6T SRAM cell at the electrical level of detail
// the paper's Sec. 3.4 argues at: storage nodes A and B, cross-coupled
// inverters with individually removable (open) transistors, access
// transistors, and bitlines that can be driven to a rail ("true" GND /
// Vcc), left floating at a rail ("float" GND, the NWRTM precharge
// state), or precharged for a read.
//
// The model reproduces the No Write Recovery Cycle (NWRC) behaviour of
// Fig. 6: during an NWRC write the bitline on the side that would pull
// the storage node up is left at float GND instead of being driven, so
// the node can only rise through the cell's own pull-up PMOS. A good
// cell flips; a cell with an open pull-up cannot, and the fault is
// observed by the very next read with no retention pause.
//
// Retention behaviour is also modelled: a stored value whose high node
// lacks a static pull path is dynamic and decays during Hold, which is
// how a conventional delay-based test (write, wait ~100 ms, read)
// detects the same defect.
package cell

import "fmt"

// Node identifies one of the two storage nodes.
type Node int

const (
	// A is the true storage node; the cell's architectural value is
	// the logic level of A.
	A Node = iota
	// B is the complement storage node.
	B
)

// String names the node.
func (n Node) String() string {
	if n == A {
		return "A"
	}
	return "B"
}

// Transistor identifies one of the six transistors of the cell.
type Transistor int

const (
	// PullUpA is the PMOS pulling node A to Vcc (input: node B).
	PullUpA Transistor = iota
	// PullUpB is the PMOS pulling node B to Vcc (input: node A).
	PullUpB
	// PullDownA is the NMOS pulling node A to GND (input: node B).
	PullDownA
	// PullDownB is the NMOS pulling node B to GND (input: node A).
	PullDownB
	// AccessA connects node A to bitline BL under the wordline.
	AccessA
	// AccessB connects node B to bitline BLb under the wordline.
	AccessB
	// numTransistors is the count of the above.
	numTransistors
)

var transistorNames = [...]string{"PullUpA", "PullUpB", "PullDownA", "PullDownB", "AccessA", "AccessB"}

// String names the transistor.
func (t Transistor) String() string {
	if t >= 0 && int(t) < len(transistorNames) {
		return transistorNames[t]
	}
	return fmt.Sprintf("Transistor(%d)", int(t))
}

const (
	// vHigh and vLow are the rails in normalized volts.
	vHigh = 1.0
	vLow  = 0.0
	// vTrip is the inverter trip point: a gate input below vTrip turns
	// the pull-up on, at or above it the pull-down.
	vTrip = 0.5
	// defaultDecay is the voltage lost per millisecond by a dynamic
	// (undriven) high node. At 0.008/ms a freshly written dynamic 1
	// crosses the trip point after 62.5 ms, so the conventional 100 ms
	// retention pause of [3] reliably exposes it while a back-to-back
	// read does not.
	defaultDecay = 0.008
	// settleIters bounds the latch feedback fixpoint iteration.
	settleIters = 8
)

// Cell is a single 6T SRAM cell. The zero value is not usable; call New
// or NewWithOpen.
type Cell struct {
	va, vb float64
	open   [numTransistors]bool
	// decay is the per-ms voltage loss of a dynamic high node.
	decay float64
	// lastStable is the last unambiguous architectural value, used to
	// resolve metastable settles.
	lastStable bool
	// senseLatch is the last value the sense amplifier produced; a
	// failed read (no differential) returns it again, the behaviour a
	// stuck-open column exhibits.
	senseLatch bool
}

// New returns a defect-free cell storing 0.
func New() *Cell {
	c := &Cell{decay: defaultDecay}
	c.va, c.vb = vLow, vHigh
	return c
}

// NewWithOpen returns a cell with the given transistor open-circuited,
// storing 0 (as far as the defect allows a 0 to be stored).
func NewWithOpen(t Transistor) *Cell {
	c := New()
	c.open[t] = true
	c.settle(false, false)
	return c
}

// SetDecay overrides the dynamic-node decay rate in volts per
// millisecond; intended for tests.
func (c *Cell) SetDecay(perMs float64) { c.decay = perMs }

// Open reports whether the given transistor is open.
func (c *Cell) Open(t Transistor) bool { return c.open[t] }

// Voltages returns the current node voltages (va, vb), for inspection.
func (c *Cell) Voltages() (va, vb float64) { return c.va, c.vb }

// Value returns the architectural stored value: node A's logic level.
// A metastable cell (no differential) reports the last stable value.
func (c *Cell) Value() bool {
	switch {
	case c.va > c.vb:
		return true
	case c.vb > c.va:
		return false
	default:
		return c.lastStable
	}
}

// driveState describes how an operation treats a bitline.
type driveState int

const (
	// hiZ: bitline disconnected (wordline closed on that side or no
	// driver); contributes nothing.
	hiZ driveState = iota
	// drivenHigh: actively driven to Vcc ("true" Vcc).
	drivenHigh
	// drivenLow: actively driven to GND ("true" GND).
	drivenLow
	// floatLow: at GND but not driven ("float" GND). No charge can be
	// sourced from it; it cannot pull the node anywhere.
	floatLow
)

// Write performs a normal write cycle of v. Both bitlines are actively
// driven (BL to v's rail, BLb to the complement), so even a cell with an
// open pull-up accepts the value — it just cannot retain it statically.
func (c *Cell) Write(v bool) {
	if v {
		c.writeCycle(drivenHigh, drivenLow)
	} else {
		c.writeCycle(drivenLow, drivenHigh)
	}
}

// WriteNWRC performs a No Write Recovery Cycle write of v (Fig. 6): the
// bitline on the rising-node side is left at float GND, so the node can
// only rise through the cell's own pull-up PMOS. A good cell flips; a
// cell whose relevant pull-up is open does not.
func (c *Cell) WriteNWRC(v bool) {
	if v {
		c.writeCycle(floatLow, drivenLow)
	} else {
		c.writeCycle(drivenLow, floatLow)
	}
}

// WriteWeak performs a Weak Write Test Mode cycle [14,15]: the write
// drivers are throttled so they cannot overpower a healthy cross-
// coupled pair. Only a node held *dynamically* — high with its pull-up
// open — yields to the weak drive, so a stability-compromised (DRF)
// cell flips while a good cell keeps its value. This is the DFT
// alternative the paper's Sec. 3.4 compares NWRTM against.
func (c *Cell) WriteWeak(v bool) {
	cur := c.Value()
	if cur == v {
		return
	}
	// The node currently holding the high level resists through its
	// pull-up PMOS; if that pull-up is open the node is dynamic and
	// the weak pull-down wins.
	if cur && c.open[PullUpA] && !c.open[AccessA] {
		c.va = vLow
		c.settle(false, false)
		c.noteStable()
	}
	if !cur && c.open[PullUpB] && !c.open[AccessB] {
		c.vb = vLow
		c.settle(false, false)
		c.noteStable()
	}
}

// writeCycle opens the wordline with the given bitline drive states,
// lets the clamped nodes settle, then closes the wordline and lets the
// latch feedback resolve.
func (c *Cell) writeCycle(bl, blb driveState) {
	// Access phase: a driven bitline overpowers the cell through a
	// non-open access transistor. A floating bitline sources/sinks no
	// charge (the paper's "no charge sharing effects" for float GND).
	clampA, clampB := false, false
	if !c.open[AccessA] {
		switch bl {
		case drivenHigh:
			c.va, clampA = vHigh, true
		case drivenLow:
			c.va, clampA = vLow, true
		}
	}
	if !c.open[AccessB] {
		switch blb {
		case drivenHigh:
			c.vb, clampB = vHigh, true
		case drivenLow:
			c.vb, clampB = vLow, true
		}
	}
	// Feedback with clamps held (write drivers are stronger than the
	// cell), then release the wordline and settle freely.
	c.settle(clampA, clampB)
	c.settle(false, false)
	c.noteStable()
}

// settle iterates the cross-coupled inverter pair to a fixpoint. A node
// whose active pull device is open holds its voltage (dynamic node).
// Clamped nodes are held by the external driver.
func (c *Cell) settle(clampA, clampB bool) {
	for i := 0; i < settleIters; i++ {
		na, nb := c.va, c.vb
		if !clampA {
			na = c.inverterOut(c.vb, PullUpA, PullDownA, c.va)
		}
		if !clampB {
			nb = c.inverterOut(c.va, PullUpB, PullDownB, c.vb)
		}
		if na == c.va && nb == c.vb {
			return
		}
		c.va, c.vb = na, nb
	}
	// No fixpoint (metastable oscillation): fall back to the last
	// stable architectural state, as a real latch's asymmetry would.
	if c.lastStable {
		c.va, c.vb = vHigh, vLow
	} else {
		c.va, c.vb = vLow, vHigh
	}
}

// inverterOut computes the next voltage of a node given its inverter
// input, honouring open pull devices by holding the current voltage.
func (c *Cell) inverterOut(in float64, up, down Transistor, cur float64) float64 {
	if in < vTrip {
		if c.open[up] {
			return cur // dynamic: nothing pulls it up
		}
		return vHigh
	}
	if c.open[down] {
		return cur // dynamic: nothing pulls it down
	}
	return vLow
}

// noteStable records the architectural value if the nodes carry a clear
// differential.
func (c *Cell) noteStable() {
	if c.va != c.vb {
		c.lastStable = c.va > c.vb
	}
}

// Read performs a read cycle: both bitlines precharge high, the
// wordline opens, the low storage node discharges its bitline through
// the access transistor, and the sense amplifier resolves the
// differential. A read with no usable differential (both access paths
// open, or a fully decayed cell) returns the sense amplifier's previous
// value, which is how stuck-open behaviour surfaces.
func (c *Cell) Read() bool {
	blDrop := !c.open[AccessA] && c.va < vTrip
	blbDrop := !c.open[AccessB] && c.vb < vTrip
	switch {
	case blDrop && !blbDrop:
		c.senseLatch = false
	case blbDrop && !blDrop:
		c.senseLatch = true
	}
	// Reads are non-destructive in this model; the latch feedback
	// restores full levels on a healthy cell.
	c.settle(false, false)
	c.noteStable()
	return c.senseLatch
}

// Hold advances retention time by the given milliseconds. Dynamic high
// nodes (high voltage with no static pull-up path) decay; once a node
// crosses the trip point the latch feedback resolves the new state, so
// a data-retention fault flips the cell after a sufficient pause.
func (c *Cell) Hold(ms float64) {
	if ms <= 0 {
		return
	}
	loss := c.decay * ms
	if c.va >= vTrip && c.vb < vTrip && c.open[PullUpA] {
		c.va -= loss
		if c.va < vLow {
			c.va = vLow
		}
	}
	if c.vb >= vTrip && c.va < vTrip && c.open[PullUpB] {
		c.vb -= loss
		if c.vb < vLow {
			c.vb = vLow
		}
	}
	// A low node with an open pull-down leaks upward (toward the
	// precharged bitline level); this is the non-PMOS retention defect
	// that NWRTM does *not* catch.
	if c.va < vTrip && c.vb >= vTrip && c.open[PullDownA] {
		c.va += loss
		if c.va > vHigh {
			c.va = vHigh
		}
	}
	if c.vb < vTrip && c.va >= vTrip && c.open[PullDownB] {
		c.vb += loss
		if c.vb > vHigh {
			c.vb = vHigh
		}
	}
	c.settle(false, false)
	c.noteStable()
}

// NWRCDetects reports whether an open defect on the given transistor is
// detectable by an NWRC write pair (Nw0 after a stored 1, Nw1 after a
// stored 0). Only the pull-up PMOS opens are: they are the defects for
// which the float-GND bitline removes the last path that could flip the
// node (Sec. 3.4).
func NWRCDetects(t Transistor) bool { return t == PullUpA || t == PullUpB }

// RetentionVictimValue returns the stored value that an open defect on
// the given transistor fails to retain, and whether the defect causes a
// retention failure at all. Open pull-ups lose the high state of their
// node; open pull-downs let their node leak upward, losing the opposite
// value.
func RetentionVictimValue(t Transistor) (value, affected bool) {
	switch t {
	case PullUpA:
		return true, true // stored 1 decays
	case PullUpB:
		return false, true // stored 0 decays
	case PullDownA:
		return false, true // node A leaks up while storing 0
	case PullDownB:
		return true, true // node B leaks up while storing 1
	default:
		return false, false
	}
}
