package bisd

import (
	"fmt"
	"math/bits"
	"slices"

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
// A miscompare is recorded for all its failing lanes at once: one
// append to a batch failure log, whose entry holds the failing lanes'
// mask, the bit and the index of its read's record template, and one
// OR into located, which keeps one lane-mask word per cell of every
// memory, bit l set once lane l has located that cell. The words cover
// every cell, not only the special ones — under LSB-first delivery
// clean cells miscompare on every lane. After the pass, Run cuts one
// batch buffer for the records and one for the located cells into
// every (lane, memory) pair's slice by offset, and fills the records
// in log order, so a lane's records come out in its execution order,
// and the located cells by walking located in cell order, so each
// lane's located list comes out sorted.
//
// The reports Run returns live in runner-owned storage — the Report
// and MemoryResult structs and the two batch buffers — and stay valid
// only until the next Run; a caller that keeps a report past that
// copies it, or takes the records over with Keep. Every lane's Report
// is byte-identical to what ProposedRunner.Run would produce for that
// device alone (pinned by the bisd and memtest differential suites). A
// BankRunner is not safe for concurrent use; give each fleet worker
// its own.
type BankRunner struct {
	controller
	// reports and results are the lanes' output structs, reused batch
	// after batch: lane l's report is reports[l] and its MemoryResults
	// are results[l*nm:(l+1)*nm], for nm memories; ptrs[l] is
	// &reports[l].
	reports []Report
	ptrs    []*Report
	results []MemoryResult
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
	// counts is the fill passes' per-(lane, memory) scratch, index
	// lane*nm + memory; fails and cells are the batch buffers every
	// lane's Failures and Located slice.
	counts []int
	fails  []FailureRecord
	cells  []fault.Cell
	// handover is set by Keep: the next batch's records are cut from
	// fresh per-lane allocations rather than from fails and cells.
	handover bool
}

// miscompare is one failure log entry: the lanes that failed bit of
// the read whose record template is sites[site].
type miscompare struct {
	mask      uint64
	site, bit int32
}

// NewBankRunner returns an empty runner; the first Run sizes it.
func NewBankRunner() *BankRunner { return &BankRunner{} }

// Run executes one banked batch: the devices loaded into bank lanes
// [0, lanes) run the March schedule once, word-wide across lanes, and
// one Report per lane comes back, valid until the next Run. Cycle and
// retention accounting is analytic and fault-independent, so it is
// computed once and stamped into every lane's report — exactly what
// each device's solo run would have accumulated. opt.Trace is ignored:
// fleet batches run untraced, as fleet workers do on the per-device
// path.
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
		nm := len(r.geoms)
		r.reports = make([]Report, sram.BankLanes)
		r.ptrs = make([]*Report, sram.BankLanes)
		for l := range r.ptrs {
			r.ptrs[l] = &r.reports[l]
		}
		r.results = make([]MemoryResult, sram.BankLanes*nm)
		r.written = make([][]bitvec.Vector, len(r.geoms))
		r.locBase = make([]int, len(r.geoms))
		cells := 0
		for i, g := range r.geoms {
			r.locBase[i] = cells
			cells += g.n * g.c
			r.written[i] = bitvec.NewMatrix(g.c, g.n)
		}
		r.located = make([]uint64, cells)
		r.counts = make([]int, sram.BankLanes*nm)
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

	nm := len(r.geoms)
	for l := 0; l < lanes; l++ {
		mems := r.results[l*nm : (l+1)*nm : (l+1)*nm]
		for i, g := range r.geoms {
			mems[i] = MemoryResult{Index: i, Words: g.n, Width: g.c}
		}
		r.reports[l] = Report{
			Scheme: "proposed (SPC/PSC)", ClockNs: opt.ClockNs,
			Cycles: cycles, RetentionNs: retentionNs,
			Memories: mems,
		}
	}
	r.fillFailures()
	r.fillLocated(lanes)
	r.handover = false
	return r.ptrs[:lanes], nil
}

// Keep hands the caller the storage behind the last Run's Failures and
// Located slices: the runner drops its references to it and stops
// reusing it, so slices the caller took from the reports stay valid for
// as long as it holds them. Call Keep once done reading the reports:
// their structs are the runner's, and Keep clears them. The next Run
// expects to hand its records over too and cuts them from one fresh
// allocation per lane, so a lane's records are freed with the lane's
// last holder, not with the whole batch's. A caller that copied the
// records instead would keep the runner's batch buffers live beside
// the copies: at paper scale, 64 lanes of ~2,020 56-byte records, or
// ~7 MB per runner.
func (r *BankRunner) Keep() {
	r.fails, r.cells = nil, nil
	r.handover = true
	clear(r.results)
}

// fillFailures hands the failure log's records to the lanes' results:
// one pass counts each (lane, memory) pair's records, cut gives each
// pair with records its Failures slice, and a second pass fills them
// in log order.
func (r *BankRunner) fillFailures() {
	nm := len(r.geoms)
	for _, e := range r.log {
		r.count(e.mask, r.sites[e.site].Memory)
	}
	r.fails = cut(r, r.fails, func(k int, s []FailureRecord) { r.results[k].Failures = s })
	for _, e := range r.log {
		rec := r.sites[e.site]
		rec.Bit = int(e.bit)
		for m := e.mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)*nm + rec.Memory
			r.results[k].Failures[r.counts[k]] = rec
			r.counts[k]++
		}
	}
	clear(r.counts)
}

// fillLocated does the same with the located words, walked in cell
// order, the order a located list is sorted in. A pair with none gets
// an empty, non-nil slice: an empty located set must still marshal as
// [].
func (r *BankRunner) fillLocated(lanes int) {
	nm := len(r.geoms)
	for i, g := range r.geoms {
		for _, m := range r.located[r.locBase[i]:][:g.n*g.c] {
			r.count(m, i)
		}
	}
	r.cells = cut(r, r.cells, func(k int, s []fault.Cell) { r.results[k].Located = s })
	for i, g := range r.geoms {
		for cell, m := range r.located[r.locBase[i]:][:g.n*g.c] {
			if m == 0 {
				continue
			}
			c := fault.Cell{Addr: cell / g.c, Bit: cell % g.c}
			for ; m != 0; m &= m - 1 {
				k := bits.TrailingZeros64(m)*nm + i
				r.results[k].Located[r.counts[k]] = c
				r.counts[k]++
			}
		}
	}
	clear(r.counts)
	for k := range lanes * nm {
		if r.results[k].Located == nil {
			r.results[k].Located = []fault.Cell{}
		}
	}
}

// count adds one entry to every (lane, memory) pair the mask names.
func (r *BankRunner) count(mask uint64, mem int) {
	for m := mask; m != 0; m &= m - 1 {
		r.counts[bits.TrailingZeros64(m)*len(r.geoms)+mem]++
	}
}

// cut hands every (lane, memory) pair with entries counted its slice,
// through set(lane*nm + memory, slice), and zeroes counts, which the
// fill pass then uses as the pairs' cursors. The slices come from buf,
// grown with headroom so that a batch a little larger than the last
// does not reallocate it, and cut returns buf. After Keep they come
// from one fresh allocation per lane instead, and cut returns nil.
func cut[T any](r *BankRunner, buf []T, set func(k int, s []T)) []T {
	if r.handover {
		nm := len(r.geoms)
		for l := 0; l < sram.BankLanes; l++ {
			pairs := r.counts[l*nm : (l+1)*nm]
			n := 0
			for _, c := range pairs {
				n += c
			}
			if n == 0 {
				continue
			}
			lane := make([]T, n)
			for i, c := range pairs {
				if c > 0 {
					set(l*nm+i, lane[:c:c])
					lane = lane[c:]
				}
			}
		}
		clear(r.counts)
		return nil
	}
	total := 0
	for _, n := range r.counts {
		total += n
	}
	buf = slices.Grow(buf[:0], total)
	rest := buf[:total]
	for k, n := range r.counts {
		if n > 0 {
			set(k, rest[:n:n])
			rest = rest[n:]
		}
	}
	clear(r.counts)
	return buf
}

// reset clears the previous batch's state for a same-shape run.
func (r *BankRunner) reset() {
	clear(r.located)
	for _, mem := range r.written {
		for _, w := range mem {
			w.Fill(false)
		}
	}
}

// recordMismatch registers one failing bit for every lane set in mism:
// one failure log entry, and the cell in those lanes' located sets.
func (r *BankRunner) recordMismatch(mism uint64, mem, logical, phys, bit, elem, bg, op int) {
	if mism == 0 {
		return
	}
	r.located[r.locBase[mem]+phys*r.geoms[mem].c+bit] |= mism
	if r.site < 0 {
		r.site = int32(len(r.sites))
		r.sites = push(r.sites, FailureRecord{
			Memory: mem, LogicalAddr: logical, PhysicalAddr: phys,
			Element: elem, Background: bg, Op: op,
		})
	}
	r.log = push(r.log, miscompare{mask: mism, site: r.site, bit: int32(bit)})
}

// push appends v to a batch log, doubling the log's capacity when it
// is full. A fresh runner's logs reach their size within a batch or
// two, and append, which grows a large slice by a quarter at a time,
// would allocate several times that size on the way: at paper scale,
// 21 MB for a 2 MB miscompare log per 1,024-device stream.
func push[T any](log []T, v T) []T {
	if len(log) == cap(log) {
		log = slices.Grow(log, len(log)+1)
	}
	return append(log, v)
}
