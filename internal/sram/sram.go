// Package sram provides a behavioural model of a small embedded SRAM
// (e-SRAM): an n-word by c-bit array with injectable functional faults
// from internal/fault. It is the memory-under-diagnosis substrate for
// the BISD engines and the fault simulator.
//
// The model implements the standard behavioural semantics of the March
// test literature:
//
//   - stuck-at cells ignore writes and always read their stuck value;
//   - transition-faulty cells refuse the failing transition;
//   - coupling faults fire when the aggressor cell transitions (CFin,
//     CFid) or holds a state (CFst), with single-level propagation (a
//     coupling-induced victim change does not re-trigger couplings);
//   - stuck-open cells cannot be sensed, so a read repeats the column
//     sense amplifier's previous value;
//   - address-decoder faults remap the logical-address-to-row relation
//     in the four classical ways;
//   - data-retention cells accept normal writes but lose the vulnerable
//     value after enough retention time (Hold), and fail a No Write
//     Recovery Cycle write that would have to flip them to the
//     vulnerable value — the electrical mechanism is modelled in
//     internal/cell and abstracted here behaviourally.
//
// Storage is word-packed: each row is a bitvec.Vector over a shared
// word slice. Word accesses to rows that hold no faulty or aggressor
// cell — under the fault simulator's single-fault assumption, almost
// all of them — run word-wise without per-bit fault checks.
package sram

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// DefaultRetentionThresholdMs is the retention time after which a DRF
// cell holding its vulnerable value loses it. It matches the electrical
// model's default decay (trip point crossed at 62.5 ms), comfortably
// inside the conventional 100 ms test pause of [3].
const DefaultRetentionThresholdMs = 62.5

// Memory is a behavioural n x c SRAM with injected faults. The fault
// side tables are flat slices indexed by cell so the serial-interface
// engines, which touch every cell once per shift clock, stay on an
// array-indexing fast path.
type Memory struct {
	n, c int
	// data[row] is the stored word of the row, all rows backed by one
	// contiguous word slice.
	data []bitvec.Vector
	// cellFault[i] indexes the fault whose victim cell i is into the
	// faults slice (-1 = good). Indices instead of pointers keep Inject
	// allocation-free on a recycled Memory: the descriptor lives in the
	// reused faults backing array. The fault generator guarantees at
	// most one fault per victim.
	cellFault []int32
	// aggFaults[i] indexes the coupling faults cell i drives as
	// aggressor; entries keep their capacity across ClearFaults.
	aggFaults [][]int32
	// rowFaulty[row] reports whether the row holds any victim or
	// aggressor cell; fault-free rows take the word-wise access paths.
	rowFaulty []bool
	// rowSpecial[row] masks the row's victim and aggressor cells. Rows
	// that are faulty but identity-mapped still move word-wise: the
	// stored word is copied wholesale and only the masked cells re-run
	// per-bit fault semantics — under sparse defects that is one or two
	// bits of a hundred.
	rowSpecial []bitvec.Vector
	// rowsOf[addr] lists the physical rows the logical address accesses
	// (address decoder behaviour); a nil entry means the identity row.
	// A flat slice, not a map: rows() runs on every read and write.
	rowsOf [][]int
	// senseLatch holds the last value each column's sense amplifier
	// produced.
	senseLatch bitvec.Vector
	// drfTimer accumulates retention time per DRF cell while it holds
	// the vulnerable value.
	drfTimer []float64
	// drfCells indexes the DRF victims so Hold is O(DRF count).
	drfCells []int
	// cdfPairs are column-decoder multi-select shorts: accessing IO
	// bit i also drives/loads column j.
	cdfPairs []struct{ i, j int }
	faults   []fault.Fault
	// rowBuf backs the identity return of rows() so the per-access fast
	// path never allocates.
	rowBuf [1]int
	// transBuf is the reusable transition scratch for write paths.
	transBuf []transition
}

// New returns a fault-free n-word by c-bit memory initialized to zero.
func New(n, c int) *Memory {
	if n <= 0 || c <= 0 {
		panic(fmt.Sprintf("sram: invalid geometry %dx%d", n, c))
	}
	return &Memory{
		n: n, c: c,
		data:       bitvec.NewMatrix(c, n),
		cellFault:  newCellFaultIndex(n * c),
		aggFaults:  make([][]int32, n*c),
		rowFaulty:  make([]bool, n),
		rowSpecial: bitvec.NewMatrix(c, n),
		rowsOf:     make([][]int, n),
		senseLatch: bitvec.New(c),
		drfTimer:   make([]float64, n*c),
	}
}

// Reset returns the memory to the fault-free all-zero state New
// produces, reusing every allocation. Sweep workers call it between
// samples instead of allocating a fresh Memory per fault.
func (m *Memory) Reset() {
	m.ClearFaults()
	for _, row := range m.data {
		row.Fill(false)
	}
	m.senseLatch.Fill(false)
}

// ClearFaults removes every injected fault while keeping the stored
// data. Fault side tables are cleared per injected fault, so the cost
// is O(fault count), not O(n*c).
func (m *Memory) ClearFaults() {
	for _, f := range m.faults {
		switch f.Class {
		case fault.ADOF:
			m.rowsOf[f.Victim.Addr] = nil
			m.rowsOf[f.Partner] = nil
		case fault.CDF:
			// cdfPairs is truncated below.
		default:
			vidx := m.idx(f.Victim.Addr, f.Victim.Bit)
			m.cellFault[vidx] = -1
			m.drfTimer[vidx] = 0
			m.rowFaulty[f.Victim.Addr] = false
			m.rowSpecial[f.Victim.Addr].Set(f.Victim.Bit, false)
			switch f.Class {
			case fault.CFin, fault.CFid, fault.CFst:
				aidx := m.idx(f.Aggressor.Addr, f.Aggressor.Bit)
				m.aggFaults[aidx] = m.aggFaults[aidx][:0]
				m.rowFaulty[f.Aggressor.Addr] = false
				m.rowSpecial[f.Aggressor.Addr].Set(f.Aggressor.Bit, false)
			}
		}
	}
	m.drfCells = m.drfCells[:0]
	m.cdfPairs = m.cdfPairs[:0]
	m.faults = m.faults[:0]
}

// N returns the number of words.
func (m *Memory) N() int { return m.n }

// C returns the IO width in bits.
func (m *Memory) C() int { return m.c }

// Faults returns the injected fault list (sorted by injection call
// order).
func (m *Memory) Faults() []fault.Fault { return m.faults }

func (m *Memory) idx(addr, bit int) int { return addr*m.c + bit }

// cellFaultAt returns the fault whose victim cell idx is, or nil. The
// pointer aims into the faults slice and is only valid until the next
// Inject.
func (m *Memory) cellFaultAt(idx int) *fault.Fault {
	if fi := m.cellFault[idx]; fi >= 0 {
		return &m.faults[fi]
	}
	return nil
}

func newCellFaultIndex(cells int) []int32 {
	out := make([]int32, cells)
	for i := range out {
		out[i] = -1
	}
	return out
}

func (m *Memory) checkCell(c fault.Cell) error {
	if c.Addr < 0 || c.Addr >= m.n || c.Bit < 0 || c.Bit >= m.c {
		return fmt.Errorf("sram: cell %v out of range for %dx%d memory", c, m.n, m.c)
	}
	return nil
}

// Inject adds a fault to the memory. Injecting two faults on the same
// victim cell is rejected. Stuck-at cells immediately assume their
// stuck value.
func (m *Memory) Inject(f fault.Fault) error {
	if f.Class == fault.ADOF {
		if f.Victim.Addr < 0 || f.Victim.Addr >= m.n {
			return fmt.Errorf("sram: AF address %d out of range", f.Victim.Addr)
		}
		if f.Partner < 0 || f.Partner >= m.n {
			return fmt.Errorf("sram: AF partner %d out of range", f.Partner)
		}
		m.injectAF(f)
		m.faults = append(m.faults, f)
		return nil
	}
	if f.Class == fault.CDF {
		if f.Victim.Bit < 0 || f.Victim.Bit >= m.c || f.Bit2 < 0 || f.Bit2 >= m.c {
			return fmt.Errorf("sram: CDF columns %d/%d out of range", f.Victim.Bit, f.Bit2)
		}
		if f.Victim.Bit == f.Bit2 {
			return fmt.Errorf("sram: CDF columns must differ")
		}
		m.cdfPairs = append(m.cdfPairs, struct{ i, j int }{f.Victim.Bit, f.Bit2})
		m.faults = append(m.faults, f)
		return nil
	}
	if err := m.checkCell(f.Victim); err != nil {
		return err
	}
	vidx := m.idx(f.Victim.Addr, f.Victim.Bit)
	existing := m.cellFaultAt(vidx)
	dup := existing != nil
	fidx := int32(len(m.faults))
	switch f.Class {
	case fault.CFin, fault.CFid, fault.CFst:
		if err := m.checkCell(f.Aggressor); err != nil {
			return err
		}
		// CFin/CFid semantics live on the aggressor side, so they may
		// be linked with a stuck-at victim (the stuck value dominates).
		// Any other combination keeps the single-fault-per-cell rule.
		linkedSA := dup && (existing.Class == fault.SA0 || existing.Class == fault.SA1) &&
			f.Class != fault.CFst
		if dup && !linkedSA {
			return fmt.Errorf("sram: cell %v already faulty", f.Victim)
		}
		if !dup {
			m.cellFault[vidx] = fidx
		}
		aidx := m.idx(f.Aggressor.Addr, f.Aggressor.Bit)
		m.aggFaults[aidx] = append(m.aggFaults[aidx], fidx)
		m.rowFaulty[f.Aggressor.Addr] = true
		m.rowSpecial[f.Aggressor.Addr].Set(f.Aggressor.Bit, true)
	default:
		if dup {
			return fmt.Errorf("sram: cell %v already faulty", f.Victim)
		}
		m.cellFault[vidx] = fidx
	}
	m.rowFaulty[f.Victim.Addr] = true
	m.rowSpecial[f.Victim.Addr].Set(f.Victim.Bit, true)
	switch f.Class {
	case fault.SA0:
		m.data[f.Victim.Addr].Set(f.Victim.Bit, false)
	case fault.SA1:
		m.data[f.Victim.Addr].Set(f.Victim.Bit, true)
	case fault.DRF:
		m.drfCells = append(m.drfCells, vidx)
	}
	m.faults = append(m.faults, f)
	return nil
}

// injectAF installs an address-decoder fault into the row mapping.
func (m *Memory) injectAF(f fault.Fault) {
	switch f.AF {
	case fault.AFNoCell:
		// The address accesses no row at all.
		m.rowsOf[f.Victim.Addr] = []int{}
	case fault.AFNoAddress:
		// The victim row is unreachable: its address selects the
		// partner row instead, so victim and partner alias.
		m.rowsOf[f.Victim.Addr] = []int{f.Partner}
	case fault.AFMultiCell:
		// The address additionally accesses the partner row.
		m.rowsOf[f.Victim.Addr] = []int{f.Victim.Addr, f.Partner}
	case fault.AFMultiAddress:
		// The partner address also selects the victim's row (its own
		// row is no longer selected).
		m.rowsOf[f.Partner] = []int{f.Victim.Addr}
	}
}

// rows returns the physical rows a logical address accesses. The
// identity result is backed by rowBuf and only valid until the next
// call; callers iterate it immediately and never retain it.
func (m *Memory) rows(addr int) []int {
	if r := m.rowsOf[addr]; r != nil {
		return r
	}
	m.rowBuf[0] = addr
	return m.rowBuf[:]
}

// transition records a cell value change for coupling propagation.
type transition struct {
	idx int
	up  bool
}

// Write performs a normal write of word w at addr. It panics on a
// geometry mismatch (programming error), matching the hardware's
// inability to present a wrong-width word.
func (m *Memory) Write(addr int, w bitvec.Vector) { m.write(addr, w, false) }

// WriteNWRC performs a No Write Recovery Cycle write: identical to a
// normal write except that a DRF cell cannot be flipped *to* its
// vulnerable value (the float-GND bitline removes the only charge
// path; see internal/cell).
func (m *Memory) WriteNWRC(addr int, w bitvec.Vector) { m.write(addr, w, true) }

func (m *Memory) write(addr int, w bitvec.Vector, nwrc bool) {
	m.checkAddr(addr)
	if w.Width() != m.c {
		panic(fmt.Sprintf("sram: write width %d to %d-bit memory", w.Width(), m.c))
	}
	if m.rowsOf[addr] == nil && len(m.cdfPairs) == 0 {
		// Word-wise fast path: an identity-mapped, fault-free row with
		// no column shorts stores the word verbatim, and none of its
		// cells is an aggressor, so no coupling can fire.
		if !m.rowFaulty[addr] {
			m.data[addr].CopyFrom(w)
			return
		}
		// Identity-mapped faulty row: only the masked victim/aggressor
		// cells carry write semantics or drive couplings; every other
		// cell stores its bit verbatim, so the row still moves as one
		// word plus a per-bit fix-up of the (sparse) special cells.
		mask := m.rowSpecial[addr]
		trans := m.transBuf[:0]
		for b := mask.NextSet(0); b >= 0; b = mask.NextSet(b + 1) {
			if t, changed := m.writeBit(addr, b, w.Get(b), nwrc); changed {
				trans = append(trans, t)
			}
		}
		m.data[addr].MergeFrom(w, mask)
		m.transBuf = trans[:0]
		m.propagate(trans)
		return
	}
	trans := m.transBuf[:0]
	for _, row := range m.rows(addr) {
		for bit := 0; bit < m.c; bit++ {
			if t, changed := m.writeBit(row, bit, w.Get(bit), nwrc); changed {
				trans = append(trans, t)
			}
		}
		// Column-decoder multi-select: the short also drives column j
		// with IO bit i's data, after the normal column writes.
		for _, p := range m.cdfPairs {
			if t, changed := m.writeBit(row, p.j, w.Get(p.i), nwrc); changed {
				trans = append(trans, t)
			}
		}
	}
	m.transBuf = trans[:0]
	m.propagate(trans)
}

// WriteWeak performs a Weak Write Test Mode cycle [14,15] at addr: the
// throttled write drivers cannot flip a healthy cell, so the word only
// affects data-retention-faulty cells that currently hold their
// vulnerable (dynamically stored) value and are weakly driven to the
// opposite one. See internal/cell for the electrical mechanism.
func (m *Memory) WriteWeak(addr int, w bitvec.Vector) {
	m.checkAddr(addr)
	if w.Width() != m.c {
		panic(fmt.Sprintf("sram: weak write width %d to %d-bit memory", w.Width(), m.c))
	}
	// A weak write moves nothing on a fault-free identity-mapped row,
	// and on a faulty identity-mapped row only the masked special cells
	// can be data-retention victims.
	if m.rowsOf[addr] == nil {
		if !m.rowFaulty[addr] {
			return
		}
		mask := m.rowSpecial[addr]
		trans := m.transBuf[:0]
		for bit := mask.NextSet(0); bit >= 0; bit = mask.NextSet(bit + 1) {
			if t, moved := m.writeWeakBit(addr, bit, w.Get(bit)); moved {
				trans = append(trans, t)
			}
		}
		m.transBuf = trans[:0]
		m.propagate(trans)
		return
	}
	trans := m.transBuf[:0]
	for _, row := range m.rows(addr) {
		for bit := 0; bit < m.c; bit++ {
			if t, moved := m.writeWeakBit(row, bit, w.Get(bit)); moved {
				trans = append(trans, t)
			}
		}
	}
	m.transBuf = trans[:0]
	m.propagate(trans)
}

// writeWeakBit applies one Weak Write Test Mode cycle to a single cell:
// only a DRF cell holding its vulnerable value and weakly driven to the
// opposite one moves.
func (m *Memory) writeWeakBit(row, bit int, v bool) (transition, bool) {
	idx := m.idx(row, bit)
	f := m.cellFaultAt(idx)
	if f == nil || f.Class != fault.DRF {
		return transition{}, false
	}
	if m.data[row].Get(bit) == f.Value && v != f.Value {
		m.data[row].Set(bit, v)
		m.drfTimer[idx] = 0
		return transition{idx: idx, up: v}, true
	}
	return transition{}, false
}

// WriteBit writes a single physical cell, honouring fault semantics and
// coupling propagation. It is the access path serial interfaces use
// (they thread cells directly, bypassing the address decoder); the
// shift engines call it once per cell per clock, so it avoids
// allocating.
func (m *Memory) WriteBit(row, bit int, v bool) {
	m.checkCellPos(row, bit)
	if t, changed := m.writeBit(row, bit, v, false); changed {
		m.propagateOne(t)
	}
}

// writeBit applies one bit write and reports the resulting transition.
func (m *Memory) writeBit(row, bit int, v bool, nwrc bool) (transition, bool) {
	idx := m.idx(row, bit)
	cur := m.data[row].Get(bit)
	if f := m.cellFaultAt(idx); f != nil {
		switch f.Class {
		case fault.SA0, fault.SA1:
			return transition{}, false
		case fault.TFUp:
			if !cur && v {
				return transition{}, false
			}
		case fault.TFDown:
			if cur && !v {
				return transition{}, false
			}
		case fault.CFst:
			if m.aggressorValue(f) == f.AggState {
				// While forced, the victim resists writes.
				m.data[row].Set(bit, f.Value)
				return transition{}, false
			}
		case fault.DRF:
			if nwrc && v == f.Value && cur != v {
				return transition{}, false // NWRC cannot flip to the vulnerable value
			}
			m.drfTimer[idx] = 0
		}
	}
	if cur == v {
		return transition{}, false
	}
	m.data[row].Set(bit, v)
	return transition{idx: idx, up: v}, true
}

// propagate fires coupling faults for the given aggressor transitions,
// single level (induced victim changes do not re-trigger).
func (m *Memory) propagate(trans []transition) {
	for _, t := range trans {
		m.propagateOne(t)
	}
}

// propagateOne fires the couplings of a single aggressor transition.
func (m *Memory) propagateOne(t transition) {
	for _, fi := range m.aggFaults[t.idx] {
		f := &m.faults[fi]
		vidx := m.idx(f.Victim.Addr, f.Victim.Bit)
		switch f.Class {
		case fault.CFin:
			if (f.Dir == fault.Up) == t.up {
				m.setVictim(vidx, !m.data[f.Victim.Addr].Get(f.Victim.Bit))
			}
		case fault.CFid:
			if (f.Dir == fault.Up) == t.up {
				m.setVictim(vidx, f.Value)
			}
		case fault.CFst:
			if t.up == f.AggState {
				m.setVictim(vidx, f.Value)
			}
		}
	}
}

// setVictim applies a coupling effect to a victim cell. A stuck-at
// victim dominates (its value cannot move); other victim-side faults do
// not block the disturbance.
func (m *Memory) setVictim(idx int, v bool) {
	if f := m.cellFaultAt(idx); f != nil && (f.Class == fault.SA0 || f.Class == fault.SA1) {
		return
	}
	row, bit := idx/m.c, idx%m.c
	if m.data[row].Get(bit) != v {
		m.data[row].Set(bit, v)
		m.drfTimer[idx] = 0
	}
}

// Read performs a read of addr and returns the sensed word. With an
// address-decoder fault mapping the address to no row, every column
// repeats its sense amplifier's stale value; with multiple rows the
// result is the wired-AND of the rows.
func (m *Memory) Read(addr int) bitvec.Vector {
	out := bitvec.New(m.c)
	m.ReadInto(addr, out)
	return out
}

// ReadInto performs a read of addr into the caller-provided vector,
// the allocation-free access path the sweep engine runs on. It panics
// if out's width differs from the IO width.
func (m *Memory) ReadInto(addr int, out bitvec.Vector) {
	m.checkAddr(addr)
	if out.Width() != m.c {
		panic(fmt.Sprintf("sram: read into width %d from %d-bit memory", out.Width(), m.c))
	}
	if m.rowsOf[addr] == nil && len(m.cdfPairs) == 0 {
		// Word-wise fast path: an identity-mapped, fault-free row with
		// no column shorts senses the stored word verbatim. The sense
		// latch still tracks every read so a stuck-open cell injected
		// later (or reached through a fault path) repeats the true
		// last-sensed value.
		if !m.rowFaulty[addr] {
			out.CopyFrom(m.data[addr])
			m.senseLatch.CopyFrom(m.data[addr])
			return
		}
		// Identity-mapped faulty row: the unmasked cells sense their
		// stored value word-wise (columns are independent, so their
		// latch updates merge word-wise too); only the masked special
		// cells re-run per-bit read semantics.
		mask := m.rowSpecial[addr]
		out.CopyFrom(m.data[addr])
		m.senseLatch.MergeFrom(m.data[addr], mask)
		for bit := mask.NextSet(0); bit >= 0; bit = mask.NextSet(bit + 1) {
			out.Set(bit, m.readBit(addr, bit))
		}
		return
	}
	rows := m.rows(addr)
	for bit := 0; bit < m.c; bit++ {
		var v bool
		switch len(rows) {
		case 0:
			// No wordline fires: both bitlines stay precharged high and
			// the sense amplifier resolves to 1 on every column.
			v = true
			m.senseLatch.Set(bit, v)
		case 1:
			v = m.readBit(rows[0], bit)
		default:
			v = true
			for _, r := range rows {
				v = v && m.readBit(r, bit)
			}
		}
		out.Set(bit, v)
	}
	// Column-decoder multi-select: IO bit i senses the wired-AND of
	// its own column and the shorted column j.
	for _, p := range m.cdfPairs {
		if len(rows) == 1 {
			out.Set(p.i, out.Get(p.i) && m.readBit(rows[0], p.j))
		}
	}
}

// ReadBit senses one physical cell directly (serial-interface access
// path).
func (m *Memory) ReadBit(row, bit int) bool {
	m.checkCellPos(row, bit)
	return m.readBit(row, bit)
}

func (m *Memory) readBit(row, bit int) bool {
	v := m.data[row].Get(bit)
	if f := m.cellFaultAt(m.idx(row, bit)); f != nil {
		switch f.Class {
		case fault.SA0:
			v = false
		case fault.SA1:
			v = true
		case fault.CFst:
			if m.aggressorValue(f) == f.AggState {
				v = f.Value
			}
		case fault.SOF:
			// The cell cannot discharge a bitline; the sense amp
			// repeats its previous value for this column.
			return m.senseLatch.Get(bit)
		}
	}
	m.senseLatch.Set(bit, v)
	return v
}

func (m *Memory) aggressorValue(f *fault.Fault) bool {
	return m.data[f.Aggressor.Addr].Get(f.Aggressor.Bit)
}

// Hold advances retention time by ms milliseconds. DRF cells holding
// their vulnerable value accumulate retention stress and lose the value
// once the threshold is crossed.
func (m *Memory) Hold(ms float64) {
	if ms <= 0 {
		return
	}
	for _, idx := range m.drfCells {
		f := m.cellFaultAt(idx)
		row, bit := idx/m.c, idx%m.c
		if m.data[row].Get(bit) == f.Value {
			m.drfTimer[idx] += ms
			if m.drfTimer[idx] >= DefaultRetentionThresholdMs {
				m.data[row].Set(bit, !f.Value)
			}
		} else {
			m.drfTimer[idx] = 0
		}
	}
}

// RowFaulty reports whether the row holds any faulty or aggressor
// cell. Rows that don't are pure storage: bit reads and writes on them
// have no fault semantics, which is what lets the serial chain shift
// them word-parallel.
func (m *Memory) RowFaulty(row int) bool {
	m.checkAddr(row)
	return m.rowFaulty[row]
}

// RowData returns the row's raw stored word for in-place word-parallel
// access, bypassing all fault semantics (the word-wide Peek/Poke).
// Callers must confine it to rows where raw access is equivalent —
// !RowFaulty(row) — as the serial chain's clean-row fast path does.
func (m *Memory) RowData(row int) bitvec.Vector {
	m.checkAddr(row)
	return m.data[row]
}

// Peek returns the raw stored value of a cell, bypassing read fault
// semantics; for tests and debugging.
func (m *Memory) Peek(addr, bit int) bool {
	m.checkCellPos(addr, bit)
	return m.data[addr].Get(bit)
}

// Poke sets the raw stored value of a cell, bypassing write fault
// semantics; for tests and debugging.
func (m *Memory) Poke(addr, bit int, v bool) {
	m.checkCellPos(addr, bit)
	m.data[addr].Set(bit, v)
}

func (m *Memory) checkAddr(addr int) {
	if addr < 0 || addr >= m.n {
		panic(fmt.Sprintf("sram: address %d out of range (n=%d)", addr, m.n))
	}
}

func (m *Memory) checkCellPos(addr, bit int) {
	if addr < 0 || addr >= m.n || bit < 0 || bit >= m.c {
		panic(fmt.Sprintf("sram: cell %d.%d out of range for %dx%d", addr, bit, m.n, m.c))
	}
}
