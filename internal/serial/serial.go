// Package serial implements the serial access structures the paper
// compares:
//
//   - ShiftRegister: a plain DFF chain, the building block.
//   - SPC: the Serial-to-Parallel Converter of Sec. 3.2, including the
//     MSB-first/LSB-first delivery orders whose difference Fig. 4
//     illustrates for heterogeneous word widths.
//   - PSC: the Parallel-to-Serial Converter of Sec. 3.3 with scan-type
//     DFFs, capture/shift under scan_en, LSB-first shift-out.
//   - Chain: memory cells threaded into a serial shift path, the
//     structure behind the single-directional serial interface of
//     [9,10] (fault masking) and the bi-directional interface of [7,8]
//     (Fig. 2; masking-free but at most one fault identified per
//     element per direction).
//
// All three converter structures are word-packed: register state lives
// in bitvec words, single-bit clocks are carry-propagating word shifts
// (O(width/64) instead of O(width)) and full deliveries/drains are word
// copies. The original bit-by-bit implementations are retained in
// reference_test.go and pinned against these by differential fuzz tests.
package serial

import (
	"fmt"

	"repro/internal/bitvec"
)

// ShiftRegister is a chain of D flip-flops. Bit 0 is the input end:
// Shift moves every bit one stage toward higher indices and inserts the
// new bit at stage 0, returning the bit that falls off the far end.
type ShiftRegister struct {
	bits bitvec.Vector
}

// NewShiftRegister returns an all-zero register with the given number
// of stages.
func NewShiftRegister(stages int) *ShiftRegister {
	if stages <= 0 {
		panic(fmt.Sprintf("serial: invalid register length %d", stages))
	}
	return &ShiftRegister{bits: bitvec.New(stages)}
}

// Len returns the number of stages.
func (r *ShiftRegister) Len() int { return r.bits.Width() }

// Shift clocks the register once.
func (r *ShiftRegister) Shift(in bool) (out bool) {
	return r.bits.ShiftUp1(in)
}

// Bit returns the value of stage i.
func (r *ShiftRegister) Bit(i int) bool { return r.bits.Get(i) }

// Load sets all stages at once (parallel load).
func (r *ShiftRegister) Load(bits []bool) {
	if len(bits) != r.bits.Width() {
		panic(fmt.Sprintf("serial: load %d bits into %d stages", len(bits), r.bits.Width()))
	}
	for i, b := range bits {
		r.bits.Set(i, b)
	}
}

// Order is the serialization order of a pattern stream.
type Order int

const (
	// MSBFirst delivers DP[c-1] first — the order Sec. 3.2 prescribes
	// so narrower SPCs retain the low-order bits.
	MSBFirst Order = iota
	// LSBFirst delivers DP[0] first — the hazardous order of Fig. 4
	// that loses the low (c-c') bits in narrower converters.
	LSBFirst
)

// String names the order.
func (o Order) String() string {
	if o == MSBFirst {
		return "MSB-first"
	}
	return "LSB-first"
}

// SPC is a Serial-to-Parallel Converter local to one e-SRAM: a chain of
// DFFs whose parallel outputs drive the memory's data inputs through
// the test-input multiplexers. The stream enters at the stage driving
// data bit 0 and marches toward bit width-1, converting "from the MSB
// to the LSB" (Sec. 3.2): after a full widest-memory delivery of
// length streamLen >= width, stage i holds the stream bit delivered
// i-from-last — with MSB-first delivery, exactly DP[i].
type SPC struct {
	// reg bit i drives memory data input bit i.
	reg bitvec.Vector
}

// NewSPC returns an SPC for a memory of the given IO width.
func NewSPC(width int) *SPC {
	if width <= 0 {
		panic(fmt.Sprintf("serial: invalid SPC width %d", width))
	}
	return &SPC{reg: bitvec.New(width)}
}

// Width returns the converter width.
func (s *SPC) Width() int { return s.reg.Width() }

// ShiftIn clocks one serial stream bit into the converter: the stream
// enters at stage 0 and shifts toward the high stage.
func (s *SPC) ShiftIn(b bool) {
	s.reg.ShiftUp1(b)
}

// Reset clears every stage — the power-on state of a fresh converter,
// used when a reusable engine runner moves to the next device.
func (s *SPC) Reset() { s.reg.Fill(false) }

// Word returns the current parallel output.
func (s *SPC) Word() bitvec.Vector {
	return s.reg.Clone()
}

// WordInto writes the current parallel output into the caller-provided
// vector without allocating. It panics on a width mismatch.
func (s *SPC) WordInto(out bitvec.Vector) {
	if out.Width() != s.reg.Width() {
		panic(fmt.Sprintf("serial: word into width %d from %d-bit SPC", out.Width(), s.reg.Width()))
	}
	out.CopyFrom(s.reg)
}

// Deliver streams the pattern dp (of the widest memory's width) into
// the SPC in the given order, one ShiftIn per bit — exactly what the
// Data Background Generator does once before each March element. With
// MSBFirst, a width-c' SPC ends up holding DP[c'-1:0]; with LSBFirst it
// ends up holding DP[c-1:c-c'] mirrored into the low stages, the Fig. 4
// coverage hazard.
//
// The delivery is word-parallel: a full-length (or longer) stream
// leaves the register in a state that depends only on the last width
// stream bits, so the composition of all dp.Width() shifts collapses
// into one truncated copy (MSB-first) or one reversed copy (LSB-first).
// Shorter streams fall back to per-bit shifting; either way no
// intermediate []bool is allocated.
func (s *SPC) Deliver(dp bitvec.Vector, order Order) {
	if dp.Width() >= s.reg.Width() {
		if order == MSBFirst {
			s.reg.CopyTruncated(dp)
		} else {
			s.reg.CopyReversed(dp)
		}
		return
	}
	// A stream shorter than the register cannot overwrite every stage;
	// clock it in bit by bit (still O(width/64) per clock).
	for i := 0; i < dp.Width(); i++ {
		if order == MSBFirst {
			s.ShiftIn(dp.Get(dp.Width() - 1 - i))
		} else {
			s.ShiftIn(dp.Get(i))
		}
	}
}

// PSC is the Parallel-to-Serial Converter of Fig. 5: scan-type DFFs
// that capture the memory's read data in parallel (scan_en low) and
// shift it back to the BISD controller LSB-first (scan_en high) while
// the memory idles.
type PSC struct {
	reg    bitvec.Vector
	scanEn bool
	// shifted counts shifts since the last capture; the protocol
	// checks below use it to reject shifting garbage past the captured
	// word and re-capturing over a half-drained chain.
	shifted int
}

// NewPSC returns a PSC for the given IO width.
func NewPSC(width int) *PSC {
	if width <= 0 {
		panic(fmt.Sprintf("serial: invalid PSC width %d", width))
	}
	return &PSC{reg: bitvec.New(width)}
}

// Width returns the converter width.
func (p *PSC) Width() int { return p.reg.Width() }

// ScanEn reports the current scan-enable state.
func (p *PSC) ScanEn() bool { return p.scanEn }

// Capture loads the memory's read word into the scan DFFs (scan_en
// low). It panics on a width mismatch, and on a capture over a
// half-drained chain (0 < shifts since last capture < width): the
// controller would silently lose the undrained response bits, the kind
// of protocol bug a packed fast path could otherwise paper over.
func (p *PSC) Capture(word bitvec.Vector) {
	if word.Width() != p.reg.Width() {
		panic(fmt.Sprintf("serial: capture width %d into %d-bit PSC", word.Width(), p.reg.Width()))
	}
	if p.shifted != 0 && p.shifted < p.reg.Width() {
		panic(fmt.Sprintf("serial: capture into %d-bit PSC mid-drain (%d of %d bits shifted out)",
			p.reg.Width(), p.shifted, p.reg.Width()))
	}
	p.scanEn = false
	p.reg.CopyFrom(word)
	p.shifted = 0
}

// ShiftOut clocks the scan chain once (scan_en high) and returns the
// next response bit; bits emerge LSB-first. It panics when the captured
// word has already been fully shifted out — the stage beyond the width
// holds nothing, so the controller would be comparing garbage.
func (p *PSC) ShiftOut() bool {
	if p.shifted >= p.reg.Width() {
		panic(fmt.Sprintf("serial: shift out of %d-bit PSC past its width without re-capture", p.reg.Width()))
	}
	p.scanEn = true
	p.shifted++
	return p.reg.ShiftDown1(false)
}

// Drain shifts out the full captured word and reassembles it as seen by
// the controller's comparator (bit i arrives at shift i).
func (p *PSC) Drain() bitvec.Vector {
	v := bitvec.New(p.reg.Width())
	p.DrainInto(v)
	return v
}

// DrainInto shifts out the full captured word into the caller-provided
// vector without allocating. It panics on a width mismatch, and (like
// ShiftOut) if part of the captured word was already shifted out.
// A full drain is a single word copy: the reassembled word — bit i at
// shift i — is exactly the captured register contents.
func (p *PSC) DrainInto(out bitvec.Vector) {
	if out.Width() != p.reg.Width() {
		panic(fmt.Sprintf("serial: drain into width %d from %d-bit PSC", out.Width(), p.reg.Width()))
	}
	if p.shifted != 0 {
		panic(fmt.Sprintf("serial: drain of %d-bit PSC after %d bits already shifted out", p.reg.Width(), p.shifted))
	}
	p.scanEn = true
	out.CopyFrom(p.reg)
	p.reg.Fill(false)
	p.shifted = p.reg.Width()
}
