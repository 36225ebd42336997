package bisd

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/trace"
)

// The shared BISD controller of Fig. 3, decomposed into the blocks the
// figure names. Each block is deliberately small; together they drive
// the per-memory SPC/PSC pairs in the proposed engine.

// AddressTrigger enables the local address generators and steps them
// through a March element's address order. The controller is designed
// for the largest memory (Sec. 3.1): it issues nMax logical addresses
// and each local generator wraps them into its own range.
type AddressTrigger struct {
	up, down []int
}

// NewAddressTrigger returns a trigger sized for the largest memory.
func NewAddressTrigger(nMax int) *AddressTrigger {
	if nMax <= 0 {
		panic(fmt.Sprintf("bisd: invalid trigger size %d", nMax))
	}
	return &AddressTrigger{up: march.Up.Addresses(nMax), down: march.Down.Addresses(nMax)}
}

// Sequence returns the logical address visit order for an element. The
// slice is shared and precomputed; callers must not modify it.
func (a *AddressTrigger) Sequence(o march.Order) []int {
	if o == march.Down {
		return a.down
	}
	return a.up
}

// LocalAddressGenerator is the per-memory address counter; it wraps the
// controller's logical address into the memory's smaller range, the
// wrap-around behaviour of Sec. 3.1.
type LocalAddressGenerator struct {
	n int
}

// NewLocalAddressGenerator returns a generator for an n-word memory.
func NewLocalAddressGenerator(n int) *LocalAddressGenerator {
	return &LocalAddressGenerator{n: n}
}

// Map converts a logical address to the physical address, wrapping.
func (g *LocalAddressGenerator) Map(logical int) int { return logical % g.n }

// Wrapped reports whether the logical address has wrapped at least once.
func (g *LocalAddressGenerator) Wrapped(logical int) bool { return logical >= g.n }

// BackgroundGenerator is the Data Background Generator: it serializes
// the background pattern of the widest memory, MSB first (Sec. 3.2), or
// LSB first when configured to demonstrate the Fig. 4 hazard. The
// pattern set is generated once at construction, so Pattern is a table
// lookup and the per-element loop stays allocation-free.
type BackgroundGenerator struct {
	cMax     int
	order    serial.Order
	patterns []bitvec.Vector
}

// NewBackgroundGenerator returns a generator for the widest IO width.
func NewBackgroundGenerator(cMax int, order serial.Order) *BackgroundGenerator {
	if cMax <= 0 {
		panic(fmt.Sprintf("bisd: invalid background width %d", cMax))
	}
	return &BackgroundGenerator{cMax: cMax, order: order, patterns: bitvec.Backgrounds(cMax)}
}

// Pattern returns background bg (index into bitvec.Backgrounds) at the
// widest width. The returned vector is shared; callers must not modify
// it.
func (b *BackgroundGenerator) Pattern(bg int) bitvec.Vector {
	return b.patterns[bg]
}

// Deliver streams the pattern into every SPC; this is the once-per-
// element serial delivery and costs cMax cycles.
func (b *BackgroundGenerator) Deliver(pattern bitvec.Vector, spcs []*serial.SPC) int {
	for _, s := range spcs {
		s.Deliver(pattern, b.order)
	}
	return b.cMax
}

// ComparatorArray compares, bit by bit, each memory's serialized
// response against the expected value and registers the diagnosis
// information. The expected state lives in a per-memory shadow of what
// a fault-free memory would hold; because the shadow is updated on
// every (possibly redundant, wrapped) write, the comparison tolerates
// the address wrap-around of smaller memories (Sec. 3.1).
type ComparatorArray struct {
	// expected[i][addr] is the fault-free word of memory i.
	expected [][]bitvec.Vector
	// diffBuf is the reusable failing-bit scratch Compare returns.
	diffBuf []int
}

// newComparatorArray sizes the shadow state for the fleet.
func newComparatorArray(geoms []geometry) *ComparatorArray {
	ca := &ComparatorArray{expected: make([][]bitvec.Vector, len(geoms))}
	for i, g := range geoms {
		ca.expected[i] = bitvec.NewMatrix(g.c, g.n)
	}
	return ca
}

// Reset zeroes every shadow word — the state of a fresh fleet — so a
// reusable runner can diagnose the next device without reallocating
// the array.
func (ca *ComparatorArray) Reset() {
	for _, mem := range ca.expected {
		for _, w := range mem {
			w.Fill(false)
		}
	}
}

// NoteWrite updates the shadow for a write of word to memory i at the
// physical address, reusing the preallocated shadow vector.
func (ca *ComparatorArray) NoteWrite(i, physAddr int, word bitvec.Vector) {
	ca.expected[i][physAddr].CopyFrom(word)
}

// Expected returns the shadow word for memory i at the physical address.
func (ca *ComparatorArray) Expected(i, physAddr int) bitvec.Vector {
	return ca.expected[i][physAddr]
}

// Compare checks a drained response word against the shadow and returns
// the failing bit positions. The returned slice is a reusable scratch,
// valid until the next Compare call on this array.
func (ca *ComparatorArray) Compare(i, physAddr int, got bitvec.Vector) []int {
	want := ca.expected[i][physAddr]
	if got.Equal(want) {
		return nil
	}
	ca.diffBuf = ca.diffBuf[:0]
	got.ForEachDiff(want, func(b int) {
		ca.diffBuf = append(ca.diffBuf, b)
	})
	return ca.diffBuf
}

// ControlGenerator produces the per-op control signals: read/write
// enables, the scan_en for the PSCs (the one extra global wire the
// proposed scheme adds, Sec. 4.3) and the global NWRTM precharge-
// disable line (Sec. 3.4).
type ControlGenerator struct {
	// NWRTMWired reports whether the fleet has the NWRTM DFT hook; a
	// test containing NWRC ops requires it.
	NWRTMWired bool
}

// Check validates that the test's control needs are wired.
func (cg *ControlGenerator) Check(t march.Test) error {
	if t.HasNWRC() && !cg.NWRTMWired {
		return fmt.Errorf("bisd: test %q needs the NWRTM control wire, which is not present", t.Name)
	}
	return nil
}

// controller is the shared BISD controller of Fig. 3 as the proposed
// engine runs it: the blocks above plus the per-memory SPCs and local
// address generators they drive. Everything here is fault-independent,
// so ProposedRunner (one device) and BankRunner (64 bank lanes) embed
// one controller each and supply only their memory-side address loops.
// The state is sized for one fleet shape and delivery order and is
// re-fitted only when those change.
type controller struct {
	// Cached sizing; state below is rebuilt when it stops matching.
	geoms []geometry
	nMax  int
	cMax  int
	order serial.Order

	trigger  *AddressTrigger
	bgGen    *BackgroundGenerator
	comp     *ComparatorArray
	spcs     []*serial.SPC
	addrGens []*LocalAddressGenerator
	// Per-memory word buffers, refreshed once per element: the SPC
	// output and the controller's intended delivery, each with its
	// complement — the address loops run allocation-free on these.
	spcWord     []bitvec.Vector
	spcWordInv  []bitvec.Vector
	intended    []bitvec.Vector
	intendedInv []bitvec.Vector
	geomScratch []geometry
	// steps is the schedule scratch run expands the test into.
	steps []march.Step
}

// shape is what sizing needs of a memory; sram.Memory and
// sram.MemoryBank both have it.
type shape interface {
	N() int
	C() int
}

// shapeOf appends the geometry of each memory to dst.
func shapeOf[M shape](dst []geometry, mems []M) []geometry {
	for _, m := range mems {
		dst = append(dst, geometry{n: m.N(), c: m.C()})
	}
	return dst
}

// bounds returns the controller sizing: the largest and the widest
// memory of the fleet (Sec. 3.1).
func bounds(geoms []geometry) (nMax, cMax int) {
	for _, g := range geoms {
		nMax = max(nMax, g.n)
		cMax = max(cMax, g.c)
	}
	return nMax, cMax
}

// fit checks a run's inputs, defaults opt.ClockNs and sizes c for the
// fleet and delivery order. When both match the previous run, c keeps
// its state — the comparator shadow and SPCs are reset, not rebuilt —
// and fit reports reused, so the caller resets its own state too.
func fit[M shape](c *controller, mems []M, test march.Test, opt *ProposedOptions) (reused bool, err error) {
	if len(mems) == 0 {
		return false, fmt.Errorf("bisd: empty fleet")
	}
	if err := test.Validate(); err != nil {
		return false, err
	}
	if opt.ClockNs == 0 {
		opt.ClockNs = 10
	}
	cg := &ControlGenerator{NWRTMWired: !opt.DisableNWRTM}
	if err := cg.Check(test); err != nil {
		return false, err
	}
	c.geomScratch = shapeOf(c.geomScratch[:0], mems)
	if c.trigger != nil && c.order == opt.DeliveryOrder && slices.Equal(c.geoms, c.geomScratch) {
		c.comp.Reset()
		for _, s := range c.spcs {
			s.Reset()
		}
		return true, nil
	}
	c.geoms = slices.Clone(c.geomScratch)
	c.nMax, c.cMax = bounds(c.geoms)
	c.order = opt.DeliveryOrder
	c.trigger = NewAddressTrigger(c.nMax)
	c.bgGen = NewBackgroundGenerator(c.cMax, c.order)
	c.comp = newComparatorArray(c.geoms)
	c.spcs = make([]*serial.SPC, len(c.geoms))
	c.addrGens = make([]*LocalAddressGenerator, len(c.geoms))
	c.spcWord = make([]bitvec.Vector, len(c.geoms))
	c.spcWordInv = make([]bitvec.Vector, len(c.geoms))
	c.intended = make([]bitvec.Vector, len(c.geoms))
	c.intendedInv = make([]bitvec.Vector, len(c.geoms))
	for i, g := range c.geoms {
		c.spcs[i] = serial.NewSPC(g.c)
		c.addrGens[i] = NewLocalAddressGenerator(g.n)
		c.spcWord[i] = bitvec.New(g.c)
		c.spcWordInv[i] = bitvec.New(g.c)
		c.intended[i] = bitvec.New(g.c)
		c.intendedInv[i] = bitvec.New(g.c)
	}
	return false, nil
}

// run walks test's schedule once over the fitted fleet and returns the
// cycle and retention-pause totals. Per element execution it polls
// opt.Ctx, holds the memories for a delay element (hold, charged to
// retentionNs), serially delivers the background before a writing
// element (cMax cycles) and refreshes the word buffers; element then
// runs that element's address x op x memory loop from the given cycle
// count and returns the updated count. The schedule is the widest
// memory's (Sec. 3.2).
func (c *controller) run(test march.Test, opt ProposedOptions, hold func(ms float64),
	element func(e march.Element, elem, bg int, cycles int64) (int64, error)) (cycles int64, retentionNs float64, err error) {
	c.steps = test.AppendSchedule(c.steps[:0], c.cMax)
	for elem, st := range c.steps {
		e, bg := test.Elements[st.Element], st.Background
		if err := ctxErr(opt.Ctx); err != nil {
			return 0, 0, err
		}
		if e.DelayMs > 0 {
			hold(e.DelayMs)
			retentionNs += e.DelayMs * 1e6
		}
		// The Enabled guards keep the disabled-trace path free of the
		// variadic boxing Emitf's arguments would otherwise allocate
		// once per element.
		if opt.Trace.Enabled() {
			opt.Trace.Emitf(cycles, trace.ElementStart, "ctrl", "elem %d bg %d: %s", elem, bg, e)
		}
		pattern := c.bgGen.Pattern(bg)
		if e.Writes() > 0 {
			if opt.Trace.Enabled() {
				opt.Trace.Emitf(cycles, trace.Delivery, "bggen", "pattern %s", pattern)
			}
			cycles += int64(c.bgGen.Deliver(pattern, c.spcs))
		}
		// The SPC holds whatever was (last) delivered — the memory
		// receives that — while the comparator expects what the
		// controller *intended* to deliver, DP[c_i-1:0]. With MSB-first
		// delivery the two coincide; with the hazardous LSB-first order
		// of Fig. 4 they diverge and diagnosis breaks down.
		for k, s := range c.spcs {
			s.WordInto(c.spcWord[k])
			c.spcWordInv[k].InvertFrom(c.spcWord[k])
			c.intended[k].CopyTruncated(pattern)
			c.intendedInv[k].InvertFrom(c.intended[k])
		}
		if cycles, err = element(e, elem, bg, cycles); err != nil {
			return 0, 0, err
		}
	}
	return cycles, retentionNs, nil
}

// cancelPollInterval is the address-loop cancellation granularity:
// within a March element the optional Ctx is polled every this many
// addresses, so even a single very large memory aborts promptly
// instead of finishing a multi-second element first. A power of two
// keeps the poll check a mask test.
const cancelPollInterval = 1 << 14

// ctxErr is a non-blocking cancellation poll; a nil context never
// cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
