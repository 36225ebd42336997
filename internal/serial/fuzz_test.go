package serial

import (
	"testing"

	"repro/internal/bitvec"
)

// Differential fuzzing of the word-packed converters against the
// retained bit-accurate reference implementations (reference_test.go),
// extending internal/scanout's fuzz pattern: raw fuzz bytes are
// interpreted as an operation program, both implementations execute it
// in lockstep, and any observable divergence fails. Widths cover
// 1..130 so the single-word, exact-two-word and partial-top-word
// packings are all exercised, and SPC deliveries run in both orders.

// fuzzWidth maps a fuzz byte onto the 1..130 width range.
func fuzzWidth(b byte) int { return int(b)%130 + 1 }

// fuzzPattern derives a deterministic pattern of the given width from a
// seed byte, using a splitmix-style generator so all word positions see
// both values across seeds.
func fuzzPattern(width int, seed byte) bitvec.Vector {
	v := bitvec.New(width)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := 0; i < width; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		if x&(1<<uint(i%64)) != 0 {
			v.Set(i, true)
		}
	}
	return v
}

func FuzzShiftRegisterPacked(f *testing.F) {
	f.Add([]byte{4, 0xa5, 0x3c})
	f.Add([]byte{129, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{63})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := fuzzWidth(data[0])
		packed := NewShiftRegister(width)
		ref := newRefShiftRegister(width)
		for _, b := range data[1:] {
			// Each byte clocks 8 bits through both registers.
			for k := 0; k < 8; k++ {
				in := b>>uint(k)&1 == 1
				got, want := packed.Shift(in), ref.Shift(in)
				if got != want {
					t.Fatalf("width %d: shift out %v, reference %v", width, got, want)
				}
			}
		}
		for i := 0; i < width; i++ {
			if packed.Bit(i) != ref.Bit(i) {
				t.Fatalf("width %d: stage %d = %v, reference %v", width, i, packed.Bit(i), ref.Bit(i))
			}
		}
	})
}

func FuzzSPCPacked(f *testing.F) {
	f.Add([]byte{3, 0, 7, 130, 9})
	f.Add([]byte{100, 1, 0, 1, 2, 3})
	f.Add([]byte{64, 1, 64, 64})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		width := fuzzWidth(data[0])
		order := MSBFirst
		if data[1]&1 == 1 {
			order = LSBFirst
		}
		packed := NewSPC(width)
		ref := newRefSPC(width)
		for i := 2; i < len(data); i++ {
			b := data[i]
			if b&1 == 0 {
				// Deliver a full pattern; its width also sweeps 1..130 so
				// both the narrower-stream and full-delivery paths run.
				dp := fuzzPattern(fuzzWidth(b>>1), b)
				packed.Deliver(dp, order)
				ref.Deliver(dp, order)
			} else {
				in := b&2 != 0
				packed.ShiftIn(in)
				ref.ShiftIn(in)
			}
			if got, want := packed.Word(), ref.Word(); !got.Equal(want) {
				t.Fatalf("width %d %s after op %d: word %s, reference %s", width, order, i-2, got, want)
			}
		}
	})
}

func FuzzPSCPacked(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3})
	f.Add([]byte{127, 0xff, 0x00, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		width := fuzzWidth(data[0])
		packed := NewPSC(width)
		ref := newRefPSC(width)
		buf := bitvec.New(width)
		for i, b := range data[1:] {
			word := fuzzPattern(width, b)
			packed.Capture(word)
			ref.Capture(word)
			if i%2 == 0 {
				// Bit-by-bit drain: every emerging bit must match.
				for k := 0; k < width; k++ {
					got, want := packed.ShiftOut(), ref.ShiftOut()
					if got != want {
						t.Fatalf("width %d: shift %d out %v, reference %v", width, k, got, want)
					}
				}
			} else {
				packed.DrainInto(buf)
				if want := ref.Drain(); !buf.Equal(want) {
					t.Fatalf("width %d: drain %s, reference %s", width, buf, want)
				}
			}
		}
	})
}
