package sram

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// BankLanes is the lane width of a MemoryBank: one uint64 bit lane per
// fleet device.
const BankLanes = 64

// ErrUnbankable reports a fault class the bit-sliced bank cannot model
// lane-parallel: SOF needs per-read sense-latch history on every
// column, and ADOF/CDF remap whole rows or columns, breaking the
// shared-address invariant the lanes rely on. A fleet holding one
// cannot run through the bank; the fleet path reports it as an error.
var ErrUnbankable = errors.New("sram: fault class not bankable")

// MemoryBank is the bit-sliced (structure-of-arrays) form of up to
// BankLanes Memory instances sharing one n x c geometry: lane l of
// every word is device l. It exploits the fleet workload's structure —
// all lanes receive the *same* scalar address/data sequence (one
// controller, one SPC), only their injected faults differ — so a cell
// with no fault in any lane always holds the broadcast of the scalar
// word last written to it. The bank therefore maintains per-lane data
// words only at "special" cells (the union of victim and aggressor
// cells across all lanes: 38 % of the cells of a 64-lane batch of the
// paper's 512x100 e-SRAM with 256 faults, 46 % on the heterogeneous
// SoC); every other cell is implicit in the caller's scalar written
// shadow, and one schedule pass advances all 64 devices at a few word
// operations per touched row.
//
// Inject appends special cells in injection order. The first row
// operation after loading seals the bank: it reorders the cells into
// cell order once, so a row's special cells are one contiguous block,
// ascending bit, and a row walk streams that block instead of
// gathering cells scattered across the lanes' injection order.
//
// Write/read/Hold semantics at special cells mirror Memory exactly,
// per lane (pinned by FuzzMemoryBank and the bisd/memtest differential
// suites); couplings are intra-lane, so lanes never interact.
type MemoryBank struct {
	n, c int
	// cellIdx[cell] indexes the cell's lane state in cells; -1 = clean.
	cellIdx []int32
	// cells holds every special cell's lane state. Once sealed, row r's
	// special cells are cells[rowStart[r]:rowStart[r+1]], ascending
	// bit — the visit order the per-device write/read loops use.
	cells    []bankCell
	rowStart []int32
	sealed   bool
	// spare and perm are seal's reorder scratch: the cells are copied
	// into spare in cell order, perm maps an old index to its new one.
	spare []bankCell
	perm  []int32
	// Entry pools; bankCell heads/tails chain into them so Reset reuses
	// every allocation. Their cell references are indexes into cells,
	// remapped by seal.
	couplings []bankCoupling
	cfsts     []bankCFst
	drfs      []bankDRF

	// held is set by the first Hold since Reset. Retention timers only
	// accumulate in Hold, so until then every timer is zero and writes
	// skip resetting them — the NWRTM schedule never holds at all.
	held bool

	// trans is the per-write transition scratch for single-level
	// coupling propagation.
	trans []bankTrans
}

// bankCell is one special cell's lane state: its lane word, per-class
// fault masks (bit l = lane l) and intrusive list heads into the
// bank's entry pools.
type bankCell struct {
	data         uint64
	sa0, sa1     uint64
	tfUp, tfDown uint64
	drf, drfVal  uint64
	// victims masks the lanes holding any victim fault at this cell
	// (the Inject dup rule).
	victims uint64
	// pos is the cell's position, addr*c + bit.
	pos                        int32
	couplingHead, couplingTail int32
	cfstHead, cfstTail         int32
	drfHead, drfTail           int32
}

// bankCoupling is one lane's coupling fault, chained off its aggressor
// cell (the transition side).
type bankCoupling struct {
	next     int32
	victim   int32 // victim cell index
	lane     uint8
	class    fault.Class
	dirUp    bool // CFin/CFid: fires on this transition direction
	value    bool // CFid/CFst forced value
	aggState bool // CFst activating aggressor state
}

// bankCFst is one lane's CFst, chained off its victim cell (the
// read/write forcing side; the same fault also has a bankCoupling on
// the aggressor).
type bankCFst struct {
	next     int32
	agg      int32 // aggressor cell index
	lane     uint8
	value    bool
	aggState bool
}

// bankDRF is one lane's data-retention fault, chained off its cell.
type bankDRF struct {
	next  int32
	cell  int32 // cell index
	lane  uint8
	value bool
	timer float64
}

// bankTrans is one aggressor transition of a write: the cell index,
// the lanes that changed and the cell's new lane word.
type bankTrans struct {
	cell       int32
	mask, next uint64
}

// NewMemoryBank returns an empty n-word by c-bit bank: all lanes
// fault-free and all-zero.
func NewMemoryBank(n, c int) *MemoryBank {
	if n <= 0 || c <= 0 {
		panic(fmt.Sprintf("sram: invalid bank geometry %dx%d", n, c))
	}
	b := &MemoryBank{
		n: n, c: c,
		cellIdx:  make([]int32, n*c),
		rowStart: make([]int32, n+1),
	}
	for i := range b.cellIdx {
		b.cellIdx[i] = -1
	}
	return b
}

// N returns the number of words.
func (b *MemoryBank) N() int { return b.n }

// C returns the IO width in bits.
func (b *MemoryBank) C() int { return b.c }

// Reset returns every lane to the fault-free all-zero state, reusing
// all allocations; the cost is O(special cells), not O(n*c).
func (b *MemoryBank) Reset() {
	for i := range b.cells {
		b.cellIdx[b.cells[i].pos] = -1
	}
	b.cells = b.cells[:0]
	b.couplings = b.couplings[:0]
	b.cfsts = b.cfsts[:0]
	b.drfs = b.drfs[:0]
	b.held = false
	b.sealed = false
}

// cellAt returns the index into cells of the cell's lane state,
// creating it on first use; a new cell unseals the bank.
func (b *MemoryBank) cellAt(cell int32) int32 {
	if ci := b.cellIdx[cell]; ci >= 0 {
		return ci
	}
	ci := int32(len(b.cells))
	b.cellIdx[cell] = ci
	b.cells = append(b.cells, bankCell{
		pos:          cell,
		couplingHead: -1, couplingTail: -1,
		cfstHead: -1, cfstTail: -1,
		drfHead: -1, drfTail: -1,
	})
	b.sealed = false
	return ci
}

// seal reorders cells into cell order and fills rowStart. Only rows
// holding special cells are scanned, so the cost is O(n + specials*c)
// and, once the scratch has grown, allocation-free.
func (b *MemoryBank) seal() {
	b.spare = slices.Grow(b.spare[:0], len(b.cells))[:len(b.cells)]
	b.perm = slices.Grow(b.perm[:0], len(b.cells))[:len(b.cells)]
	rs := b.rowStart
	clear(rs)
	c := int32(b.c)
	for i := range b.cells {
		rs[b.cells[i].pos/c+1]++
	}
	next := int32(0)
	for r := 0; r < b.n; r++ {
		count := rs[r+1]
		rs[r+1] = rs[r] + count
		if count == 0 {
			continue
		}
		for cell := int32(r) * c; next < rs[r+1]; cell++ {
			if old := b.cellIdx[cell]; old >= 0 {
				b.spare[next] = b.cells[old]
				b.perm[old] = next
				b.cellIdx[cell] = next
				next++
			}
		}
	}
	b.cells, b.spare = b.spare, b.cells
	for i := range b.couplings {
		b.couplings[i].victim = b.perm[b.couplings[i].victim]
	}
	for i := range b.cfsts {
		b.cfsts[i].agg = b.perm[b.cfsts[i].agg]
	}
	for i := range b.drfs {
		b.drfs[i].cell = b.perm[b.drfs[i].cell]
	}
	b.sealed = true
}

// row returns row addr's special cells, ascending bit, and the index
// of the first in cells, sealing the bank first if needed.
func (b *MemoryBank) row(addr int) (int32, []bankCell) {
	b.checkAddr(addr)
	if !b.sealed {
		b.seal()
	}
	lo := b.rowStart[addr]
	return lo, b.cells[lo:b.rowStart[addr+1]]
}

func (b *MemoryBank) checkCell(c fault.Cell) error {
	if c.Addr < 0 || c.Addr >= b.n || c.Bit < 0 || c.Bit >= b.c {
		return fmt.Errorf("sram: cell %v out of range for %dx%d bank", c, b.n, b.c)
	}
	return nil
}

// Inject adds a fault to one lane, with the same per-lane dup rules as
// Memory.Inject (at most one victim fault per cell per lane, stuck-at
// victims may carry linked CFin/CFid). SOF, ADOF and CDF return
// ErrUnbankable and leave the lane unchanged; so does every other
// rejected fault.
func (b *MemoryBank) Inject(lane int, f fault.Fault) error {
	if lane < 0 || lane >= BankLanes {
		return fmt.Errorf("sram: bank lane %d out of range [0, %d)", lane, BankLanes)
	}
	coupling := false
	switch f.Class {
	case fault.SOF, fault.ADOF, fault.CDF:
		return fmt.Errorf("%w: %v", ErrUnbankable, f.Class)
	case fault.CFin, fault.CFid, fault.CFst:
		coupling = true
	}
	// Range-check every cell before the first cellAt, which would make
	// the victim special even if the fault is then refused.
	if err := b.checkCell(f.Victim); err != nil {
		return err
	}
	if coupling {
		if err := b.checkCell(f.Aggressor); err != nil {
			return err
		}
	}
	vcell := int32(f.Victim.Addr*b.c + f.Victim.Bit)
	lb := uint64(1) << uint(lane)
	vci := b.cellAt(vcell)
	vc := &b.cells[vci]
	dup := vc.victims&lb != 0
	if coupling {
		// CFin/CFid semantics live on the aggressor side, so they may
		// be linked with a stuck-at victim (the stuck value dominates);
		// everything else keeps the single-fault-per-cell rule.
		linkedSA := dup && (vc.sa0|vc.sa1)&lb != 0 && f.Class != fault.CFst
		if dup && !linkedSA {
			return fmt.Errorf("sram: bank lane %d cell %v already faulty", lane, f.Victim)
		}
		// The aggressor cell becomes special (its lane word must be
		// tracked for activation checks) and chains the coupling. Note
		// cellAt may grow cells, invalidating vc, so it is re-taken.
		aci := b.cellAt(int32(f.Aggressor.Addr*b.c + f.Aggressor.Bit))
		vc = &b.cells[vci]
		vc.victims |= lb
		if f.Class == fault.CFst {
			ei := int32(len(b.cfsts))
			b.cfsts = append(b.cfsts, bankCFst{
				next: -1, agg: aci, lane: uint8(lane),
				value: f.Value, aggState: f.AggState,
			})
			if vc.cfstHead < 0 {
				vc.cfstHead = ei
			} else {
				b.cfsts[vc.cfstTail].next = ei
			}
			vc.cfstTail = ei
		}
		ac := &b.cells[aci]
		ei := int32(len(b.couplings))
		b.couplings = append(b.couplings, bankCoupling{
			next: -1, victim: vci, lane: uint8(lane), class: f.Class,
			dirUp: f.Dir == fault.Up, value: f.Value, aggState: f.AggState,
		})
		if ac.couplingHead < 0 {
			ac.couplingHead = ei
		} else {
			b.couplings[ac.couplingTail].next = ei
		}
		ac.couplingTail = ei
		return nil
	}
	if dup {
		return fmt.Errorf("sram: bank lane %d cell %v already faulty", lane, f.Victim)
	}
	vc.victims |= lb
	switch f.Class {
	case fault.SA0:
		vc.sa0 |= lb
		vc.data &^= lb
	case fault.SA1:
		vc.sa1 |= lb
		vc.data |= lb
	case fault.TFUp:
		vc.tfUp |= lb
	case fault.TFDown:
		vc.tfDown |= lb
	case fault.DRF:
		vc.drf |= lb
		if f.Value {
			vc.drfVal |= lb
		}
		ei := int32(len(b.drfs))
		b.drfs = append(b.drfs, bankDRF{next: -1, cell: vci, lane: uint8(lane), value: f.Value})
		if vc.drfHead < 0 {
			vc.drfHead = ei
		} else {
			b.drfs[vc.drfTail].next = ei
		}
		vc.drfTail = ei
	}
	return nil
}

// LoadLane replays a device's injected fault list (Memory.Faults order)
// into lane l. It reports ok=false when any fault class is unbankable —
// the lane is still loaded with its bankable faults, but its results
// would be wrong, so the caller must not run it (the fleet path fails
// the load with ErrUnbankable). Any other error (range, dup) indicates
// a caller bug: a list replayed from a successfully built Memory cannot
// trip the dup rules.
func (b *MemoryBank) LoadLane(lane int, faults []fault.Fault) (ok bool, err error) {
	ok = true
	for _, f := range faults {
		if err := b.Inject(lane, f); err != nil {
			if errors.Is(err, ErrUnbankable) {
				ok = false
				continue
			}
			return false, err
		}
	}
	return ok, nil
}

// Write performs a normal write of the scalar word w at addr on every
// lane. Clean cells of every lane store w's bits — the caller tracks
// that in its scalar written shadow — so only the row's special cells
// run lane-wise fault semantics here.
func (b *MemoryBank) Write(addr int, w bitvec.Vector) { b.write(addr, w, false) }

// WriteNWRC performs a No Write Recovery Cycle write on every lane:
// identical to Write except a DRF cell cannot be flipped *to* its
// vulnerable value.
func (b *MemoryBank) WriteNWRC(addr int, w bitvec.Vector) { b.write(addr, w, true) }

func (b *MemoryBank) write(addr int, w bitvec.Vector, nwrc bool) {
	lo, row := b.row(addr)
	if w.Width() != b.c {
		panic(fmt.Sprintf("sram: bank write width %d to %d-bit bank", w.Width(), b.c))
	}
	if len(row) == 0 {
		return
	}
	b.trans = b.trans[:0]
	base := int32(addr * b.c)
	ws := w.Words()
	for i := range row {
		cs := &row[i]
		bit := cs.pos - base
		cur := cs.data
		v := ws[bit>>6]>>uint(bit&63)&1 != 0
		// Lanes whose cell is immovable for this write: stuck-at always,
		// the blocked transition direction for TF, and the NWRC-blocked
		// flip to a DRF's vulnerable value.
		sa := cs.sa0 | cs.sa1
		var imm, nwrcBlocked uint64
		if v {
			imm = sa | cs.tfUp&^cur
			if nwrc {
				nwrcBlocked = cs.drf & cs.drfVal &^ cur
			}
		} else {
			imm = sa | cs.tfDown&cur
			if nwrc {
				nwrcBlocked = cs.drf &^ cs.drfVal & cur
			}
		}
		imm |= nwrcBlocked
		// Active CFst victims resist the write and re-assume the forced
		// value without a transition.
		var forced, forcedVal uint64
		for ei := cs.cfstHead; ei >= 0; ei = b.cfsts[ei].next {
			e := &b.cfsts[ei]
			if b.cells[e.agg].data>>e.lane&1 == boolBit(e.aggState) {
				flb := uint64(1) << e.lane
				forced |= flb
				if e.value {
					forcedVal |= flb
				}
			}
		}
		var next uint64
		if v {
			next = cur | ^imm
		} else {
			next = cur & imm
		}
		next = next&^forced | forcedVal&forced
		changed := (cur ^ next) &^ forced
		cs.data = next
		// Every write to a DRF cell resets its retention timer, even a
		// value-preserving one — except the NWRC-blocked flip, which
		// never reaches the cell. Before the first Hold every timer is
		// already zero.
		if cs.drf != 0 && b.held {
			for di := cs.drfHead; di >= 0; di = b.drfs[di].next {
				if nwrcBlocked>>b.drfs[di].lane&1 == 0 {
					b.drfs[di].timer = 0
				}
			}
		}
		if changed != 0 && cs.couplingHead >= 0 {
			b.trans = append(b.trans, bankTrans{cell: lo + int32(i), mask: changed, next: next})
		}
	}
	b.propagate()
}

// WriteWeak performs a Weak Write Test Mode cycle at addr on every
// lane: only DRF cells currently holding their vulnerable value and
// weakly driven to the opposite one move.
func (b *MemoryBank) WriteWeak(addr int, w bitvec.Vector) {
	lo, row := b.row(addr)
	if w.Width() != b.c {
		panic(fmt.Sprintf("sram: bank weak write width %d to %d-bit bank", w.Width(), b.c))
	}
	if len(row) == 0 {
		return
	}
	b.trans = b.trans[:0]
	base := int32(addr * b.c)
	for i := range row {
		cs := &row[i]
		if cs.drf == 0 {
			continue
		}
		cur := cs.data
		vm := bitvec.LaneMask(w.Get(int(cs.pos - base)))
		// Moves: DRF lane, holding the vulnerable value, driven opposite.
		moved := cs.drf & ^(cur ^ cs.drfVal) & (vm ^ cs.drfVal)
		if moved == 0 {
			continue
		}
		next := cur ^ moved
		cs.data = next
		for di := cs.drfHead; di >= 0; di = b.drfs[di].next {
			if moved>>b.drfs[di].lane&1 != 0 {
				b.drfs[di].timer = 0
			}
		}
		if cs.couplingHead >= 0 {
			b.trans = append(b.trans, bankTrans{cell: lo + int32(i), mask: moved, next: next})
		}
	}
	b.propagate()
}

// propagate fires the collected aggressor transitions' couplings,
// single level (induced victim changes do not re-trigger), in the same
// ascending-bit, injection-chain order the per-device path uses.
func (b *MemoryBank) propagate() {
	for _, t := range b.trans {
		for ei := b.cells[t.cell].couplingHead; ei >= 0; ei = b.couplings[ei].next {
			e := &b.couplings[ei]
			if t.mask>>e.lane&1 == 0 {
				continue
			}
			up := t.next>>e.lane&1 != 0
			switch e.class {
			case fault.CFin:
				if e.dirUp == up {
					b.setVictim(e.victim, e.lane, b.cells[e.victim].data>>e.lane&1 == 0)
				}
			case fault.CFid:
				if e.dirUp == up {
					b.setVictim(e.victim, e.lane, e.value)
				}
			case fault.CFst:
				if up == e.aggState {
					b.setVictim(e.victim, e.lane, e.value)
				}
			}
		}
	}
}

// setVictim applies a coupling effect to one lane of the victim cell
// at index ci; a stuck-at victim dominates, and a moved DRF victim's
// timer resets.
func (b *MemoryBank) setVictim(ci int32, lane uint8, v bool) {
	cs := &b.cells[ci]
	lb := uint64(1) << lane
	if (cs.sa0|cs.sa1)&lb != 0 {
		return
	}
	if cs.data&lb != 0 == v {
		return
	}
	cs.data ^= lb
	if cs.drf&lb != 0 {
		for di := cs.drfHead; di >= 0; di = b.drfs[di].next {
			if b.drfs[di].lane == lane {
				b.drfs[di].timer = 0
			}
		}
	}
}

// senseCell returns the lane word a read of the special cell senses:
// stuck-at overrides, then CFst forcing per active lane. Reads have no
// bank-side effects (SOF, the only latch-visible class, is unbankable).
func (b *MemoryBank) senseCell(cs *bankCell) uint64 {
	v := cs.data&^cs.sa0 | cs.sa1
	for ei := cs.cfstHead; ei >= 0; ei = b.cfsts[ei].next {
		e := &b.cfsts[ei]
		if b.cells[e.agg].data>>e.lane&1 == boolBit(e.aggState) {
			if e.value {
				v |= uint64(1) << e.lane
			} else {
				v &^= uint64(1) << e.lane
			}
		}
	}
	return v
}

// SenseRow appends row addr's special bit positions (ascending) and
// their sensed lane words to the caller's scratch slices and returns
// the extended slices. Clean bits are absent: every lane senses the
// caller's scalar written shadow there.
func (b *MemoryBank) SenseRow(addr int, bits []int32, sensed []uint64) ([]int32, []uint64) {
	_, row := b.row(addr)
	base := int32(addr * b.c)
	for i := range row {
		bits = append(bits, row[i].pos-base)
		sensed = append(sensed, b.senseCell(&row[i]))
	}
	return bits, sensed
}

// ReadInto senses lane l's full row addr into out: the scalar written
// shadow (what every clean cell holds) overlaid with the special
// cells' lane semantics. It is the whole-row observation path the fuzz
// and differential tests compare against Memory.ReadInto.
func (b *MemoryBank) ReadInto(addr, lane int, written, out bitvec.Vector) {
	_, row := b.row(addr)
	out.CopyFrom(written)
	base := int32(addr * b.c)
	for i := range row {
		v := b.senseCell(&row[i])
		out.Set(int(row[i].pos-base), v>>uint(lane)&1 != 0)
	}
}

// Hold advances retention time by ms milliseconds on every lane: DRF
// cells holding their vulnerable value accumulate stress and lose the
// value once the threshold is crossed (no coupling propagation, as in
// Memory.Hold).
func (b *MemoryBank) Hold(ms float64) {
	if ms <= 0 {
		return
	}
	b.held = true
	for i := range b.drfs {
		d := &b.drfs[i]
		lb := uint64(1) << d.lane
		cs := &b.cells[d.cell]
		if cs.data&lb != 0 == d.value {
			d.timer += ms
			if d.timer >= DefaultRetentionThresholdMs {
				cs.data ^= lb
			}
		} else {
			d.timer = 0
		}
	}
}

// PeekLane returns lane l's raw stored bit at a cell when the cell is
// special; special=false means the cell is clean in every lane and its
// value is the caller's written shadow bit.
func (b *MemoryBank) PeekLane(addr, bit, lane int) (v, special bool) {
	b.checkCellPosBank(addr, bit)
	ci := b.cellIdx[addr*b.c+bit]
	if ci < 0 {
		return false, false
	}
	return b.cells[ci].data>>uint(lane)&1 != 0, true
}

func (b *MemoryBank) checkAddr(addr int) {
	if addr < 0 || addr >= b.n {
		panic(fmt.Sprintf("sram: bank address %d out of range (n=%d)", addr, b.n))
	}
}

func (b *MemoryBank) checkCellPosBank(addr, bit int) {
	if addr < 0 || addr >= b.n || bit < 0 || bit >= b.c {
		panic(fmt.Sprintf("sram: bank cell %d.%d out of range for %dx%d", addr, bit, b.n, b.c))
	}
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
