package serial

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/sram"
)

// Direction is the shift direction of a serial pass over a cell chain.
type Direction int

const (
	// Right shifts toward higher chain positions: the stream enters at
	// position 0 and is observed at position L-1.
	Right Direction = iota
	// Left shifts toward lower positions: enters at L-1, observed at 0.
	Left
)

// String names the direction.
func (d Direction) String() string {
	if d == Right {
		return "right"
	}
	return "left"
}

// Chain threads every cell of a memory into a serial shift path in
// row-major order (position k = addr*c + bit), the BISD-mode structure
// of Fig. 2. Shifting is simulated clock by clock through the
// behavioural memory, so data really does pass *through* faulty cells:
// a stuck cell corrupts everything downstream of it, which is exactly
// the masking phenomenon the single- and bi-directional interfaces
// differ on.
//
// The simulation is word-parallel where that is provably exact: a row
// holding no faulty, aggressor or repaired cell behaves as a pure delay
// line, so one shift clock moves its whole word with a single
// carry-propagating word shift (O(c/64)) instead of c bit reads and
// writes. Rows that do hold special cells run the original per-bit
// path in the original order, and a memory containing stuck-open
// faults — whose reads observably couple rows through the shared
// column sense latch — disables the fast path entirely. Build the
// chain after all faults are injected.
//
// Identified cells can be marked repaired: a repaired cell is bypassed
// to its backup-memory spare, which behaves fault-free. This mirrors
// the baseline scheme's iterate-repair-rediagnose loop.
type Chain struct {
	mem     *sram.Memory
	n, c, l int

	repaired    bitvec.Vector
	shadow      bitvec.Vector
	repairCount int

	// rowSpecial[r]: row r holds a faulty/aggressor cell or a repaired
	// (shadow-bypassed) cell, so its shifts take the per-bit path.
	rowSpecial []bool
	// perBitOnly: the memory holds stuck-open cells, whose reads repeat
	// the shared per-column sense latch — a cross-row side channel the
	// row-local fast path cannot reproduce, so every clock runs the
	// exact per-bit reference order.
	perBitOnly bool

	patBuf bitvec.Vector // materialized pattern of the current element
	obsBuf bitvec.Vector // reusable read-pass observation buffer
}

// NewChain builds the serial chain over a memory.
func NewChain(m *sram.Memory) *Chain {
	n, c := m.N(), m.C()
	l := n * c
	ch := &Chain{
		mem: m, n: n, c: c, l: l,
		repaired:   bitvec.New(l),
		shadow:     bitvec.New(l),
		rowSpecial: make([]bool, n),
		patBuf:     bitvec.New(l),
		obsBuf:     bitvec.New(l),
	}
	for r := 0; r < n; r++ {
		ch.rowSpecial[r] = m.RowFaulty(r)
	}
	for _, f := range m.Faults() {
		if f.Class == fault.SOF {
			ch.perBitOnly = true
			break
		}
	}
	return ch
}

// Len returns the chain length n*c.
func (ch *Chain) Len() int { return ch.l }

// Cell converts a chain position to (addr, bit).
func (ch *Chain) Cell(k int) (addr, bit int) {
	return k / ch.c, k % ch.c
}

// Position converts (addr, bit) to the chain position.
func (ch *Chain) Position(addr, bit int) int { return addr*ch.c + bit }

// Repair bypasses the cell at chain position k to a fault-free spare.
func (ch *Chain) Repair(k int) {
	ch.checkPos(k)
	if !ch.repaired.Get(k) {
		ch.repairCount++
	}
	ch.repaired.Set(k, true)
	ch.shadow.Set(k, false)
	ch.rowSpecial[k/ch.c] = true
}

// Repaired reports whether position k has been bypassed.
func (ch *Chain) Repaired(k int) bool { return ch.repaired.Get(k) }

// RepairCount returns the number of bypassed cells.
func (ch *Chain) RepairCount() int { return ch.repairCount }

func (ch *Chain) get(k int) bool {
	if ch.repaired.Get(k) {
		return ch.shadow.Get(k)
	}
	return ch.mem.ReadBit(k/ch.c, k%ch.c)
}

func (ch *Chain) set(k int, v bool) {
	if ch.repaired.Get(k) {
		ch.shadow.Set(k, v)
		return
	}
	ch.mem.WriteBit(k/ch.c, k%ch.c, v)
}

func (ch *Chain) checkPos(k int) {
	if k < 0 || k >= ch.l {
		panic(fmt.Sprintf("serial: chain position %d out of range (len %d)", k, ch.l))
	}
}

// clockRight advances the chain one shift clock toward higher
// positions, feeding `in` at position 0. Rows are processed from high
// to low, which reproduces the reference order exactly: position i is
// read (pre-shift) while position i+1 is written, and a row's bit 0
// takes the value read from the row below *after* the row's own writes
// — relevant when those writes fire coupling faults.
func (ch *Chain) clockRight(in bool) {
	if ch.perBitOnly {
		for i := ch.l - 1; i > 0; i-- {
			ch.set(i, ch.get(i-1))
		}
		ch.set(0, in)
		return
	}
	c := ch.c
	for r := ch.n - 1; r >= 0; r-- {
		base := r * c
		if ch.rowSpecial[r] {
			for i := base + c - 1; i > base; i-- {
				ch.set(i, ch.get(i-1))
			}
			if r > 0 {
				ch.set(base, ch.get(base-1))
			} else {
				ch.set(0, in)
			}
			continue
		}
		row := ch.mem.RowData(r)
		row.ShiftUp1(false)
		b0 := in
		if r > 0 {
			b0 = ch.get(base - 1)
		}
		if b0 {
			row.Set(0, true)
		}
	}
}

// clockLeft advances the chain one shift clock toward lower positions,
// feeding `in` at position L-1; rows are processed from low to high
// (the mirror of clockRight).
func (ch *Chain) clockLeft(in bool) {
	if ch.perBitOnly {
		for i := 0; i < ch.l-1; i++ {
			ch.set(i, ch.get(i+1))
		}
		ch.set(ch.l-1, in)
		return
	}
	c := ch.c
	for r := 0; r < ch.n; r++ {
		base := r * c
		if ch.rowSpecial[r] {
			for i := base; i < base+c-1; i++ {
				ch.set(i, ch.get(i+1))
			}
			if r < ch.n-1 {
				ch.set(base+c-1, ch.get(base+c))
			} else {
				ch.set(ch.l-1, in)
			}
			continue
		}
		row := ch.mem.RowData(r)
		row.ShiftDown1(false)
		top := in
		if r < ch.n-1 {
			top = ch.get(base + c)
		}
		if top {
			row.Set(c-1, true)
		}
	}
}

// WritePass shifts a full-length pattern through the chain in the given
// direction, clock by clock. pattern(k) is the value intended for chain
// position k; the stream is fed so that, on a fault-free chain, cell k
// ends up holding pattern(k). On a faulty chain the data is corrupted
// as it marches through defective cells.
func (ch *Chain) WritePass(dir Direction, pattern func(int) bool) {
	l := ch.l
	for t := 0; t < l; t++ {
		if dir == Right {
			// Feed so pattern(l-1) enters first and marches to the end.
			ch.clockRight(pattern(l - 1 - t))
		} else {
			ch.clockLeft(pattern(t))
		}
	}
}

// ReadPass shifts the chain contents out at the direction's output end
// and returns the observed values indexed by the chain position they
// are attributed to: with Right, out[k] is what the observer believes
// cell k held (cell L-1 emerges first); with Left, cell 0 emerges
// first. Values from far positions pass through every intermediate
// cell and can be corrupted en route — downstream faults mask upstream
// data.
func (ch *Chain) ReadPass(dir Direction) []bool {
	ch.ReadPassInto(dir, ch.obsBuf)
	out := make([]bool, ch.l)
	for k := range out {
		out[k] = ch.obsBuf.Get(k)
	}
	return out
}

// ReadPassInto is ReadPass into a caller-provided packed vector of the
// chain length, without allocating. It panics on a length mismatch.
func (ch *Chain) ReadPassInto(dir Direction, out bitvec.Vector) {
	if out.Width() != ch.l {
		panic(fmt.Sprintf("serial: read pass into width %d from chain of length %d", out.Width(), ch.l))
	}
	l := ch.l
	for t := 0; t < l; t++ {
		if dir == Right {
			out.Set(l-1-t, ch.get(l-1))
			ch.clockRight(false)
		} else {
			out.Set(t, ch.get(0))
			ch.clockLeft(false)
		}
	}
}

// FirstMismatchPacked compares an observed ReadPass stream with the
// expected pattern in observation order and returns the chain position
// of the first mismatching bit. With the bi-directional discipline of
// [7,8] — write in one direction, observe in the other — cells between
// the observer and the first faulty cell are read out through healthy
// stages only, so the first mismatch correctly identifies the nearest
// faulty cell (Sec. 2: at most one fault per March element per
// direction). Observation order scans from position 0 with Left and
// from the top with Right, so the first observed mismatch is the
// lowest (resp. highest) differing bit — one word-parallel diff scan.
// ok is false if the stream matches everywhere.
func FirstMismatchPacked(observed, expected bitvec.Vector, dir Direction) (pos int, ok bool) {
	if dir == Right {
		if p := observed.LastDiff(expected); p >= 0 {
			return p, true
		}
		return 0, false
	}
	if p := observed.FirstDiff(expected); p >= 0 {
		return p, true
	}
	return 0, false
}

// fillPattern materializes pattern(k) into the chain-length scratch.
func (ch *Chain) fillPattern(pattern func(int) bool) {
	for k := 0; k < ch.l; k++ {
		ch.patBuf.Set(k, pattern(k))
	}
}

// BiDirElement runs one bi-directional serialized March element pair on
// the chain: write the pattern right and observe left, then write left
// and observe right. It returns the chain positions of the faults
// identified from each end (the lowest and highest defective positions
// still unrepaired), matching the baseline scheme's two identified
// faults per M1 iteration.
func (ch *Chain) BiDirElement(pattern func(int) bool) (fromLow, fromHigh int, foundLow, foundHigh bool) {
	ch.fillPattern(pattern)

	ch.WritePass(Right, pattern)
	ch.ReadPassInto(Left, ch.obsBuf)
	fromLow, foundLow = FirstMismatchPacked(ch.obsBuf, ch.patBuf, Left)

	ch.WritePass(Left, pattern)
	ch.ReadPassInto(Right, ch.obsBuf)
	fromHigh, foundHigh = FirstMismatchPacked(ch.obsBuf, ch.patBuf, Right)

	if foundLow && foundHigh && fromLow == fromHigh {
		foundHigh = false
	}
	return fromLow, fromHigh, foundLow, foundHigh
}

// SingleDirElement runs one single-directional serialized element
// ([9,10]): write right, observe right. Because the observed values of
// upstream cells pass through every faulty cell on their way out, only
// a corrupted *stream* is seen; the first mismatch in observation order
// generally does NOT correspond to a defective cell — the masking
// problem the bi-directional interface was invented to fix.
func (ch *Chain) SingleDirElement(pattern func(int) bool) (pos int, found bool) {
	ch.fillPattern(pattern)
	ch.WritePass(Right, pattern)
	ch.ReadPassInto(Right, ch.obsBuf)
	return FirstMismatchPacked(ch.obsBuf, ch.patBuf, Right)
}
