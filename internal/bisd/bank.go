package bisd

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
)

// BankRunner executes the proposed diagnosis scheme over a bit-sliced
// fleet batch: up to sram.BankLanes same-plan devices, one per uint64
// bit lane of a sram.MemoryBank per memory, advance through a single
// March schedule pass together. The controller side (address trigger,
// background generator, SPC delivery, cycle accounting) is scalar and
// fault-independent, so it runs once per batch; only the banks' sparse
// special cells carry per-lane fault semantics.
//
// The scheme's expected state is kept in two scalar shadows:
//
//   - written[i][addr] is the word every fault-free lane of memory i
//     holds — the SPC delivered it to all lanes alike;
//   - the controller's comparator shadow holds its intent,
//     DP[c_i-1:0].
//
// Under MSB-first delivery the two coincide and a clean cell can never
// miscompare, so a read only examines the row's special cells. Under
// the hazardous LSB-first order they diverge and whole lanes fail at
// the scalar diff bits; that rare path walks the full word, merging
// special and clean bits in ascending order so the failure records
// stay byte-identical to the per-device path's.
//
// A miscompare is recorded for all its failing lanes at once. The
// failure records go to one batch log: an entry holds the failing
// lanes' mask, the bit and the index of its read's record template, so
// a miscompare costs one append however many lanes fail. After the
// pass, Run counts each lane's records per memory over the log,
// allocates every Failures slice at its exact size and fills it in log
// order, which is each lane's execution order. The located cells go to
// the lanes' collectors: located holds one lane-mask word per cell of
// every memory, bit l set once lane l has located that cell, so
// mism &^ located[cell] is the set of lanes seeing the cell for the
// first time. Only those lanes append it to their located lists; no
// lane ever scans its list. The words cover every cell, not only the
// special ones — under LSB-first delivery clean cells miscompare on
// every lane.
//
// Every lane's Report is byte-identical to what ProposedRunner.Run
// would produce for that device alone (pinned by the bisd and memtest
// differential suites). A BankRunner is not safe for concurrent use;
// give each fleet worker its own.
type BankRunner struct {
	controller
	colls   []*collector // one per lane
	written [][]bitvec.Vector
	// located[locBase[i] + phys*c_i + bit] is memory i's lane-mask word
	// for the cell.
	located []uint64
	locBase []int
	// Per-read special-cell scratch.
	senseBits []int32
	senseVals []uint64
	// log is the batch's miscompare log, execution order. sites holds
	// the record template of every read that miscompared on some lane;
	// site is the current read's index into it, -1 until its first
	// miscompare.
	log   []miscompare
	sites []FailureRecord
	site  int32
	// counts and fails are fillFailures' per-(lane, memory) scratch,
	// index lane*len(geoms) + memory.
	counts []int
	fails  [][]FailureRecord
}

// miscompare is one batch log entry: the lanes that failed bit of the
// read whose record template is sites[site].
type miscompare struct {
	mask      uint64
	site, bit int32
}

// NewBankRunner returns an empty runner; the first Run sizes it.
func NewBankRunner() *BankRunner { return &BankRunner{} }

// Run executes one banked batch: the devices loaded into bank lanes
// [0, lanes) run the March schedule once, word-wide across lanes, and
// one Report per lane comes back. Cycle and retention accounting is
// analytic and fault-independent, so it is computed once and stamped
// into every lane's report — exactly what each device's solo run would
// have accumulated. opt.Trace is ignored: fleet batches run untraced,
// as fleet workers do on the per-device path.
func (r *BankRunner) Run(banks []*sram.MemoryBank, lanes int, test march.Test, opt ProposedOptions) ([]*Report, error) {
	if lanes < 1 || lanes > sram.BankLanes {
		return nil, fmt.Errorf("bisd: bank lanes %d out of range [1, %d]", lanes, sram.BankLanes)
	}
	reused, err := fit(&r.controller, banks, test, &opt)
	if err != nil {
		return nil, err
	}
	if reused {
		r.reset()
	} else {
		r.colls = make([]*collector, sram.BankLanes)
		for l := range r.colls {
			r.colls[l] = newLaneCollector(r.geoms)
		}
		r.written = make([][]bitvec.Vector, len(r.geoms))
		r.locBase = make([]int, len(r.geoms))
		cells := 0
		for i, g := range r.geoms {
			r.locBase[i] = cells
			cells += g.n * g.c
			r.written[i] = bitvec.NewMatrix(g.c, g.n)
		}
		r.located = make([]uint64, cells)
		r.counts = make([]int, sram.BankLanes*len(r.geoms))
		r.fails = make([][]FailureRecord, sram.BankLanes*len(r.geoms))
	}
	r.log, r.sites = r.log[:0], r.sites[:0]
	comp, addrGens := r.comp, r.addrGens
	spcWord, spcWordInv, intended, intendedInv := r.spcWord, r.spcWordInv, r.intended, r.intendedInv
	cMax := r.cMax
	laneMask := ^uint64(0) >> uint(64-lanes)

	opt.Trace = nil
	hold := func(ms float64) {
		for _, b := range banks {
			b.Hold(ms)
		}
	}
	cycles, retentionNs, err := r.run(test, opt, hold, func(e march.Element, elemIdx, bgIdx int, cycles int64) (int64, error) {
		for ai, logical := range r.trigger.Sequence(e.Order) {
			if ai&(cancelPollInterval-1) == cancelPollInterval-1 {
				if err := ctxErr(opt.Ctx); err != nil {
					return cycles, err
				}
			}
			for opIdx, op := range e.Ops {
				switch op.Kind {
				case march.WriteWeak:
					// A weak write cannot change a fault-free memory, so
					// both scalar shadows are untouched.
					cycles++
					for i, b := range banks {
						word := spcWord[i]
						if op.Inverted {
							word = spcWordInv[i]
						}
						b.WriteWeak(addrGens[i].Map(logical), word)
					}
				case march.Write, march.WriteNWRC:
					cycles++
					for i, b := range banks {
						phys := addrGens[i].Map(logical)
						word, want := spcWord[i], intended[i]
						if op.Inverted {
							word, want = spcWordInv[i], intendedInv[i]
						}
						if op.Kind == march.WriteNWRC {
							b.WriteNWRC(phys, word)
						} else {
							b.Write(phys, word)
						}
						r.written[i][phys].CopyFrom(word)
						comp.NoteWrite(i, phys, want)
					}
				case march.Read:
					cycles += 1 + int64(cMax)
					for i, b := range banks {
						phys := addrGens[i].Map(logical)
						wrote, want := r.written[i][phys], comp.Expected(i, phys)
						r.senseBits, r.senseVals = b.SenseRow(phys, r.senseBits[:0], r.senseVals[:0])
						r.site = -1
						if wrote.Equal(want) {
							// Clean cells sense exactly the expected bit,
							// so only the row's special cells can
							// miscompare (ascending, like ForEachDiff).
							for si, bit := range r.senseBits {
								mism := (r.senseVals[si] ^ bitvec.LaneMask(want.Get(int(bit)))) & laneMask
								r.recordMismatch(mism, i, logical, phys, int(bit), elemIdx, bgIdx, opIdx)
							}
						} else {
							// Delivery hazard (Fig. 4, LSB-first short
							// word): clean cells hold the delivered word
							// while the comparator expects the intended
							// one, so every lane fails at the scalar diff
							// bits. Merge special and clean bits in
							// ascending order to keep records
							// byte-identical.
							si := 0
							for bit := 0; bit < b.C(); bit++ {
								var sensed uint64
								if si < len(r.senseBits) && int(r.senseBits[si]) == bit {
									sensed = r.senseVals[si]
									si++
								} else {
									sensed = bitvec.LaneMask(wrote.Get(bit))
								}
								mism := (sensed ^ bitvec.LaneMask(want.Get(bit))) & laneMask
								r.recordMismatch(mism, i, logical, phys, bit, elemIdx, bgIdx, opIdx)
							}
						}
					}
				}
			}
		}
		return cycles, nil
	})
	if err != nil {
		return nil, err
	}

	reports := make([]*Report, lanes)
	for l := range reports {
		reports[l] = &Report{
			Scheme: "proposed (SPC/PSC)", ClockNs: opt.ClockNs,
			Cycles: cycles, RetentionNs: retentionNs,
			Memories: r.colls[l].finish(),
		}
	}
	r.fillFailures(reports)
	return reports, nil
}

// fillFailures hands the batch log's records to the lanes' reports:
// one pass counts each (lane, memory) pair, each Failures slice is
// allocated at that size, and a second pass fills them in log order.
func (r *BankRunner) fillFailures(reports []*Report) {
	nm := len(r.geoms)
	counts, fails := r.counts, r.fails
	for _, e := range r.log {
		mem := r.sites[e.site].Memory
		for m := e.mask; m != 0; m &= m - 1 {
			counts[bits.TrailingZeros64(m)*nm+mem]++
		}
	}
	for k, n := range counts {
		if n > 0 {
			fails[k] = make([]FailureRecord, 0, n)
		}
	}
	for _, e := range r.log {
		rec := r.sites[e.site]
		rec.Bit = int(e.bit)
		for m := e.mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)*nm + rec.Memory
			fails[k] = append(fails[k], rec)
		}
	}
	for l, rep := range reports {
		for i := range rep.Memories {
			rep.Memories[i].Failures = fails[l*nm+i]
		}
	}
	clear(counts)
	clear(fails)
}

// reset clears the previous batch's per-lane state for a same-shape
// run. Every nonzero located word names a cell that some lane
// appended, so the lanes' located lists clear the array in O(located
// cells) before the collectors truncate them.
func (r *BankRunner) reset() {
	for _, c := range r.colls {
		for i := range c.mems {
			base, w := r.locBase[i], r.geoms[i].c
			for _, cell := range c.mems[i].cells {
				r.located[base+cell.Addr*w+cell.Bit] = 0
			}
		}
		c.reset(r.geoms)
	}
	for _, mem := range r.written {
		for _, w := range mem {
			w.Fill(false)
		}
	}
}

// recordMismatch registers one failing bit for every lane set in mism:
// one batch log entry, and the cell, appended to the located list of
// each lane that has not located it yet.
func (r *BankRunner) recordMismatch(mism uint64, mem, logical, phys, bit, elem, bg, op int) {
	if mism == 0 {
		return
	}
	k := r.locBase[mem] + phys*r.geoms[mem].c + bit
	seen := r.located[k]
	r.located[k] = seen | mism
	cell := fault.Cell{Addr: phys, Bit: bit}
	for fresh := mism &^ seen; fresh != 0; fresh &= fresh - 1 {
		m := &r.colls[bits.TrailingZeros64(fresh)].mems[mem]
		m.cells = append(m.cells, cell)
	}
	if r.site < 0 {
		r.site = int32(len(r.sites))
		r.sites = append(r.sites, FailureRecord{
			Memory: mem, LogicalAddr: logical, PhysicalAddr: phys,
			Element: elem, Background: bg, Op: op,
		})
	}
	r.log = append(r.log, miscompare{mask: mism, site: r.site, bit: int32(bit)})
}
