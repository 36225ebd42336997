// Package bitvec provides fixed-width bit vectors and the data-background
// generation used by multi-background March tests such as March CW.
//
// A Vector models the data word of an embedded SRAM with an arbitrary IO
// width c. Bit 0 is the least-significant bit (LSB); bit c-1 is the
// most-significant bit (MSB). The package also provides the serialization
// orders (MSB-first and LSB-first) that the paper's Serial-to-Parallel
// Converter discussion (Fig. 4) depends on: with heterogeneous word widths
// the background must be delivered MSB-first so that a narrower converter
// retains the low-order bits.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-width bit vector. The zero value is a zero-width
// vector; use New to create a usable one. Vectors are mutable; use Clone
// when a snapshot is needed.
type Vector struct {
	width int
	words []uint64
}

// New returns an all-zero Vector of the given width in bits.
// It panics if width is negative.
func New(width int) Vector {
	if width < 0 {
		panic(fmt.Sprintf("bitvec: negative width %d", width))
	}
	return Vector{width: width, words: make([]uint64, (width+63)/64)}
}

// NewMatrix returns `count` independent all-zero Vectors of the given
// width, backed by a single contiguous word slice — the row storage of
// a word-packed memory array, allocated in two objects instead of
// count+1.
func NewMatrix(width, count int) []Vector {
	if width < 0 || count < 0 {
		panic(fmt.Sprintf("bitvec: invalid matrix %dx%d", count, width))
	}
	wpr := (width + 63) / 64
	backing := make([]uint64, wpr*count)
	out := make([]Vector, count)
	for i := range out {
		out[i] = Vector{width: width, words: backing[i*wpr : (i+1)*wpr : (i+1)*wpr]}
	}
	return out
}

// FromUint64 returns a Vector of the given width holding the low `width`
// bits of v.
func FromUint64(width int, v uint64) Vector {
	b := New(width)
	if width == 0 {
		return b
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	if len(b.words) > 0 {
		b.words[0] = v
	}
	return b
}

// Width reports the number of bits in the vector.
func (v Vector) Width() int { return v.width }

// Get reports the bit at position i (0 = LSB). It panics if i is out of
// range.
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/64]&(1<<uint(i%64)) != 0
}

// Words returns v's backing words: bit i is bit i%64 of word i/64. The
// slice aliases v and must not be modified; it lets hot loops read many
// bits without a bounds-checked Get per bit.
func (v Vector) Words() []uint64 { return v.words }

// Set sets the bit at position i to b. It panics if i is out of range.
func (v Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/64] |= 1 << uint(i%64)
	} else {
		v.words[i/64] &^= 1 << uint(i%64)
	}
}

// Flip inverts the bit at position i and returns its new value.
func (v Vector) Flip(i int) bool {
	v.check(i)
	v.words[i/64] ^= 1 << uint(i%64)
	return v.Get(i)
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.width {
		panic(fmt.Sprintf("bitvec: index %d out of range for width %d", i, v.width))
	}
}

// Fill sets every bit to b.
func (v Vector) Fill(b bool) {
	var w uint64
	if b {
		w = ^uint64(0)
	}
	for i := range v.words {
		v.words[i] = w
	}
	v.trim()
}

// trim clears bits above the width in the top word so Equal and OnesCount
// stay well defined.
func (v Vector) trim() {
	if v.width%64 == 0 || len(v.words) == 0 {
		return
	}
	v.words[len(v.words)-1] &= (1 << uint(v.width%64)) - 1
}

// Invert flips every bit in place.
func (v Vector) Invert() {
	for i := range v.words {
		v.words[i] = ^v.words[i]
	}
	v.trim()
}

// Not returns a freshly allocated bitwise complement of v.
func (v Vector) Not() Vector {
	out := v.Clone()
	out.Invert()
	return out
}

// CopyFrom overwrites v's bits with o's without allocating. It panics
// if the widths differ.
func (v Vector) CopyFrom(o Vector) {
	v.checkWidth(o)
	copy(v.words, o.words)
}

// InvertFrom overwrites v with the bitwise complement of o without
// allocating. It panics if the widths differ.
func (v Vector) InvertFrom(o Vector) {
	v.checkWidth(o)
	for i := range v.words {
		v.words[i] = ^o.words[i]
	}
	v.trim()
}

// ForEachDiff calls fn with the position of every bit where v and o
// differ, in ascending order, walking set bits word by word with
// trailing-zero counts — no intermediate vector is allocated. It panics
// if the widths differ.
func (v Vector) ForEachDiff(o Vector, fn func(bit int)) {
	v.checkWidth(o)
	for i, w := range v.words {
		d := w ^ o.words[i]
		for d != 0 {
			fn(i*64 + bits.TrailingZeros64(d))
			d &= d - 1
		}
	}
}

// NextSet returns the position of the first set bit at or after from,
// or -1 when no bit at or above from is set, scanning words with
// trailing-zero counts — a closure-free way to walk set bits in
// allocation-sensitive loops.
func (v Vector) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.width {
		return -1
	}
	i := from / 64
	w := v.words[i] & (^uint64(0) << uint(from%64))
	for {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
		i++
		if i >= len(v.words) {
			return -1
		}
		w = v.words[i]
	}
}

// MergeFrom overwrites v's bits with o's wherever keep is 0, leaving
// bits under the keep mask untouched: v = (v AND keep) OR (o AND NOT
// keep), word-parallel and without allocating. It panics if the widths
// differ.
func (v Vector) MergeFrom(o, keep Vector) {
	v.checkWidth(o)
	v.checkWidth(keep)
	for i := range v.words {
		v.words[i] = v.words[i]&keep.words[i] | o.words[i]&^keep.words[i]
	}
}

// FirstDiff returns the lowest bit position where v and o differ, or
// -1 when they are equal. It panics if the widths differ.
func (v Vector) FirstDiff(o Vector) int {
	v.checkWidth(o)
	for i, w := range v.words {
		if d := w ^ o.words[i]; d != 0 {
			return i*64 + bits.TrailingZeros64(d)
		}
	}
	return -1
}

// LastDiff returns the highest bit position where v and o differ, or
// -1 when they are equal. It panics if the widths differ.
func (v Vector) LastDiff(o Vector) int {
	v.checkWidth(o)
	for i := len(v.words) - 1; i >= 0; i-- {
		if d := v.words[i] ^ o.words[i]; d != 0 {
			return i*64 + 63 - bits.LeadingZeros64(d)
		}
	}
	return -1
}

// ShiftUp1 shifts every bit one position toward the MSB in place,
// inserts `in` at bit 0 and returns the bit pushed out past the width —
// one clock of a serial shift chain whose input end is the LSB, run
// word-parallel.
func (v Vector) ShiftUp1(in bool) (out bool) {
	if v.width == 0 {
		return in
	}
	out = v.Get(v.width - 1)
	carry := uint64(0)
	if in {
		carry = 1
	}
	for i := range v.words {
		w := v.words[i]
		v.words[i] = w<<1 | carry
		carry = w >> 63
	}
	v.trim()
	return out
}

// ShiftDown1 shifts every bit one position toward the LSB in place,
// inserts `in` at the top bit and returns the bit pushed out at bit 0 —
// one clock of a scan chain drained LSB-first, run word-parallel.
func (v Vector) ShiftDown1(in bool) (out bool) {
	if v.width == 0 {
		return in
	}
	out = v.words[0]&1 != 0
	for i := 0; i < len(v.words)-1; i++ {
		v.words[i] = v.words[i]>>1 | v.words[i+1]<<63
	}
	v.words[len(v.words)-1] >>= 1
	if in {
		v.Set(v.width-1, true)
	}
	return out
}

// CopyReversed overwrites v with o's bits in reverse order — v[i] =
// o[o.Width()-1-i] — truncated to v's width, without allocating. It is
// the word-parallel form of delivering a pattern LSB-first into a
// narrower serial-to-parallel converter. It panics if o is narrower
// than v.
func (v Vector) CopyReversed(o Vector) {
	if v.width > o.width {
		panic(fmt.Sprintf("bitvec: cannot reverse width %d into %d", o.width, v.width))
	}
	wo := len(o.words)
	pad := uint(wo*64-o.width) % 64
	// The full bit-reversal of o.words has word k equal to
	// Reverse64(o.words[wo-1-k]); the width-c reversal is that, shifted
	// down by the top word's padding.
	frw := func(k int) uint64 {
		if k < 0 || k >= wo {
			return 0
		}
		return bits.Reverse64(o.words[wo-1-k])
	}
	for k := range v.words {
		w := frw(k) >> pad
		if pad != 0 {
			w |= frw(k+1) << (64 - pad)
		}
		v.words[k] = w
	}
	v.trim()
}

// Xor returns v XOR o. It panics if the widths differ.
func (v Vector) Xor(o Vector) Vector {
	v.checkWidth(o)
	out := v.Clone()
	for i := range out.words {
		out.words[i] ^= o.words[i]
	}
	return out
}

// And returns v AND o. It panics if the widths differ.
func (v Vector) And(o Vector) Vector {
	v.checkWidth(o)
	out := v.Clone()
	for i := range out.words {
		out.words[i] &= o.words[i]
	}
	return out
}

// Or returns v OR o. It panics if the widths differ.
func (v Vector) Or(o Vector) Vector {
	v.checkWidth(o)
	out := v.Clone()
	for i := range out.words {
		out.words[i] |= o.words[i]
	}
	return out
}

func (v Vector) checkWidth(o Vector) {
	if v.width != o.width {
		panic(fmt.Sprintf("bitvec: width mismatch %d vs %d", v.width, o.width))
	}
}

// Equal reports whether v and o have the same width and bit pattern.
func (v Vector) Equal(o Vector) bool {
	if v.width != o.width {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// OnesCount returns the number of set bits.
func (v Vector) OnesCount() int {
	n := 0
	for _, w := range v.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := New(v.width)
	copy(out.words, v.words)
	return out
}

// Truncate returns a copy of v narrowed to the low `width` bits, i.e. the
// word a narrower e-SRAM of IO width `width` stores. It panics if width
// exceeds v's width.
func (v Vector) Truncate(width int) Vector {
	if width > v.width {
		panic(fmt.Sprintf("bitvec: cannot truncate width %d to %d", v.width, width))
	}
	out := New(width)
	out.CopyTruncated(v)
	return out
}

// CopyTruncated overwrites v with the low Width(v) bits of the wider
// (or equal-width) vector o without allocating. It panics if o is
// narrower than v.
func (v Vector) CopyTruncated(o Vector) {
	if v.width > o.width {
		panic(fmt.Sprintf("bitvec: cannot truncate width %d to %d", o.width, v.width))
	}
	copy(v.words, o.words)
	v.trim()
}

// String renders the vector MSB-first, e.g. a width-4 vector with bits
// 0 and 2 set prints as "0101".
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.width)
	for i := v.width - 1; i >= 0; i-- {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse parses an MSB-first binary string ("0101") into a Vector whose
// width equals the string length.
func Parse(s string) (Vector, error) {
	v := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			v.Set(len(s)-1-i, true)
		default:
			return Vector{}, fmt.Errorf("bitvec: invalid character %q at position %d", r, i)
		}
	}
	return v, nil
}

// MustParse is Parse that panics on error; intended for constants in
// tests and examples.
func MustParse(s string) Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// SerializeMSBFirst returns the bits of v in MSB-to-LSB order, the shift
// order the paper's Data Background Generator uses so that narrower SPCs
// keep the low-order bits (Sec. 3.2).
func (v Vector) SerializeMSBFirst() []bool {
	out := make([]bool, v.width)
	for i := 0; i < v.width; i++ {
		out[i] = v.Get(v.width - 1 - i)
	}
	return out
}

// SerializeLSBFirst returns the bits of v in LSB-to-MSB order. Delivering
// backgrounds in this order to heterogeneous-width SPCs loses the low
// (c-c') bits in the narrower converters, the coverage hazard of Fig. 4.
func (v Vector) SerializeLSBFirst() []bool {
	out := make([]bool, v.width)
	for i := 0; i < v.width; i++ {
		out[i] = v.Get(i)
	}
	return out
}

// DeserializeMSBFirst reconstructs a Vector from bits in MSB-to-LSB order.
func DeserializeMSBFirst(bits []bool) Vector {
	v := New(len(bits))
	for i, b := range bits {
		v.Set(len(bits)-1-i, b)
	}
	return v
}
