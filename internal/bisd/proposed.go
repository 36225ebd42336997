package bisd

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/sram"
	"repro/internal/trace"
)

// ProposedOptions configures the proposed-scheme engine.
type ProposedOptions struct {
	// ClockNs is the diagnosis clock period t in nanoseconds (10 ns in
	// the paper's case study). Zero defaults to 10.
	ClockNs float64
	// DeliveryOrder is the background serialization order. MSBFirst is
	// the paper's design; LSBFirst reproduces the Fig. 4 coverage
	// hazard for heterogeneous widths.
	DeliveryOrder serial.Order
	// DisableNWRTM removes the NWRTM control wire; running a test with
	// NWRC ops then fails, as it would on silicon without the hook.
	DisableNWRTM bool
	// Trace, when non-nil, receives cycle-stamped events (deliveries,
	// element starts, miscompares) for debugging.
	Trace *trace.Recorder
	// Ctx, when non-nil, is polled between March elements and, inside
	// an element, every cancelPollInterval addresses: once it is
	// cancelled the run aborts promptly and returns Ctx.Err().
	Ctx context.Context
}

// ProposedRunner is the reusable form of RunProposed: it embeds the
// shared controller and owns the per-device collector and read scratch,
// re-fitting them only when the fleet geometry (or delivery order)
// changes. A fleet worker diagnosing thousands of same-plan devices
// therefore allocates engine state once, not per device — the
// proposed-path analogue of simulator.Runner. A Runner is not safe for
// concurrent use; give each worker its own.
type ProposedRunner struct {
	controller
	coll *collector
	// readBuf is the per-memory read scratch.
	readBuf []bitvec.Vector
}

// NewProposedRunner returns an empty runner; the first Run sizes it.
func NewProposedRunner() *ProposedRunner { return &ProposedRunner{} }

// Run executes the proposed diagnosis scheme (Fig. 3) over a fleet of
// e-SRAMs in parallel, cycle-accurately:
//
//   - before each March element that writes, the background pattern is
//     serially delivered to every SPC (cMax cycles, widest memory);
//   - each write op applies the SPC word in parallel (1 cycle);
//   - each read op captures into the PSC (1 cycle) and shifts the
//     response back bit by bit while the memory idles (cMax cycles),
//     where the comparator array checks it against the controller's
//     wrap-tolerant expected state.
//
// The cycle accounting reproduces the paper's Eq. (2) exactly; the test
// to run is a parameter so the same engine measures March C-, March CW
// and their NWRTM merges.
//
// The PSC capture-and-drain round trip is simulated word-wise: a full
// drain of a freshly captured word reassembles, bit for bit, the word
// that was captured (pinned by the serial package's differential
// tests), so the comparator reads the captured word directly and the
// per-read cost drops from O(c²) bit shifts to O(c/64) word ops. The
// cycle charge (1 capture + cMax shift cycles per read) is analytic
// and unchanged.
func (r *ProposedRunner) Run(mems []*sram.Memory, test march.Test, opt ProposedOptions) (*Report, error) {
	reused, err := fit(&r.controller, mems, test, &opt)
	if err != nil {
		return nil, err
	}
	if reused {
		r.coll.reset(r.geoms)
	} else {
		r.coll = newCollector(r.geoms)
		r.readBuf = make([]bitvec.Vector, len(r.geoms))
		for i, g := range r.geoms {
			r.readBuf[i] = bitvec.New(g.c)
		}
	}
	comp, coll, addrGens, readBuf := r.comp, r.coll, r.addrGens, r.readBuf
	spcWord, spcWordInv, intended, intendedInv := r.spcWord, r.spcWordInv, r.intended, r.intendedInv
	cMax := r.cMax

	hold := func(ms float64) {
		for _, m := range mems {
			m.Hold(ms)
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
					// A weak write cannot change a fault-free memory,
					// so the expected shadow is untouched.
					cycles++
					for i, m := range mems {
						word := spcWord[i]
						if op.Inverted {
							word = spcWordInv[i]
						}
						m.WriteWeak(addrGens[i].Map(logical), word)
					}
				case march.Write, march.WriteNWRC:
					cycles++
					for i, m := range mems {
						phys := addrGens[i].Map(logical)
						word, want := spcWord[i], intended[i]
						if op.Inverted {
							word, want = spcWordInv[i], intendedInv[i]
						}
						if op.Kind == march.WriteNWRC {
							m.WriteNWRC(phys, word)
						} else {
							m.Write(phys, word)
						}
						// A fault-free memory accepts either write kind,
						// so the expected shadow updates identically.
						comp.NoteWrite(i, phys, want)
					}
				case march.Read:
					// 1 capture cycle + cMax shift-out cycles while the
					// memory idles; the drained word is data-identical
					// to the captured read word, so compare it directly.
					cycles += 1 + int64(cMax)
					for i, m := range mems {
						phys := addrGens[i].Map(logical)
						m.ReadInto(phys, readBuf[i])
						for _, bit := range comp.Compare(i, phys, readBuf[i]) {
							if opt.Trace.Enabled() {
								opt.Trace.Emitf(cycles, trace.Miscompare,
									fmt.Sprintf("mem%d", i), "addr %d bit %d", phys, bit)
							}
							coll.record(FailureRecord{
								Memory: i, LogicalAddr: logical, PhysicalAddr: phys,
								Bit: bit, Element: elemIdx, Background: bgIdx, Op: opIdx,
							})
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
	return &Report{
		Scheme: "proposed (SPC/PSC)", ClockNs: opt.ClockNs,
		Cycles: cycles, RetentionNs: retentionNs,
		Memories: coll.finish(),
	}, nil
}

// RunProposed executes the proposed scheme once with fresh engine
// state; see ProposedRunner.Run. Callers diagnosing many same-geometry
// fleets should hold a ProposedRunner instead.
func RunProposed(mems []*sram.Memory, test march.Test, opt ProposedOptions) (*Report, error) {
	return NewProposedRunner().Run(mems, test, opt)
}
