// Package fault defines the memory fault models used throughout the
// reproduction: the classic functional fault models of the March-test
// literature (stuck-at, transition, coupling, stuck-open, address
// decoder) plus the data-retention fault (DRF) that Sec. 3.4 of the
// paper diagnoses through the No Write Recovery Test Mode.
//
// A Fault is a behavioural descriptor: it names a victim cell (word
// address and bit position), a fault class, and, for coupling faults, an
// aggressor cell. The behavioural SRAM model in internal/sram consumes
// these descriptors; the fault simulator in internal/simulator sweeps
// them to produce coverage tables.
package fault

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
)

// Class enumerates the supported functional fault classes.
type Class int

const (
	// SA0 and SA1 are stuck-at faults: the cell always holds 0 (resp. 1)
	// regardless of writes.
	SA0 Class = iota
	SA1
	// TFUp and TFDown are transition faults: the cell cannot make a
	// 0->1 (resp. 1->0) transition when written, but can be initialized
	// to either value by the opposite transition's success... more
	// precisely, a write requesting the failing transition leaves the
	// cell unchanged.
	TFUp
	TFDown
	// CFin is an inversion coupling fault: a transition of the
	// aggressor cell (direction given by Dir) inverts the victim.
	CFin
	// CFid is an idempotent coupling fault: a transition of the
	// aggressor (Dir) forces the victim to the fixed value Value.
	CFid
	// CFst is a state coupling fault: while the aggressor holds state
	// AggState, the victim is forced to Value (observed at reads and
	// resisting writes).
	CFst
	// SOF is a stuck-open fault: the cell cannot be read; a read
	// returns the last value the sense amplifier observed on that
	// bit position.
	SOF
	// ADOF models address-decoder open faults behaviourally as one of
	// the four classical AF classes; see AFKind.
	ADOF
	// CDF is a column-decoder fault: a short between two column select
	// lines makes an access of IO bit Victim.Bit also drive (on
	// writes) and load (on reads, wired-AND) column Bit2. Under a
	// solid data background both columns carry the same value and the
	// multi-select is invisible; a background assigning the pair
	// unequal values exposes it — which is exactly why March CW's
	// multi-background extension covers column-decoder faults
	// (Sec. 3.1). Victim.Addr is ignored: the short affects all words.
	CDF
	// DRF is the data-retention fault: an open defect on one of the
	// pull-up PMOS transistors. A cell with an open pull-up on the
	// true node cannot retain a stored 1 (Value=true variant) or a
	// stored 0 (Value=false variant, open pull-up on the complement
	// node). Crucially for the paper, such a cell also fails to flip
	// under a No Write Recovery Cycle, so NWRTM detects it without a
	// retention pause.
	DRF
)

var classNames = map[Class]string{
	SA0: "SA0", SA1: "SA1", TFUp: "TF<up>", TFDown: "TF<down>",
	CFin: "CFin", CFid: "CFid", CFst: "CFst", SOF: "SOF", ADOF: "AF",
	CDF: "CDF", DRF: "DRF",
}

// String returns the conventional fault-model abbreviation.
func (c Class) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classes lists every fault class in a stable order, for reports.
func Classes() []Class {
	return []Class{SA0, SA1, TFUp, TFDown, CFin, CFid, CFst, SOF, ADOF, CDF, DRF}
}

// Dir is a transition direction for transition and coupling faults.
type Dir int

const (
	// Up is a 0 -> 1 transition.
	Up Dir = iota
	// Down is a 1 -> 0 transition.
	Down
)

// String renders the direction as the arrow used in fault-model notation.
func (d Dir) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// AFKind enumerates the four classical address-decoder fault classes.
type AFKind int

const (
	// AFNoCell: the faulty address accesses no cell; writes are lost
	// and reads return the bus's stale value.
	AFNoCell AFKind = iota
	// AFNoAddress: the faulty cell's row is never selected by any
	// address; its contents are unreachable (behaviourally the address
	// that should reach it maps to another row).
	AFNoAddress
	// AFMultiCell: the faulty address additionally accesses a second
	// row; writes go to both, reads return the wired-AND of both.
	AFMultiCell
	// AFMultiAddress: a second address also maps to the faulty cell's
	// row.
	AFMultiAddress
)

var afNames = map[AFKind]string{
	AFNoCell: "AF-A (no cell)", AFNoAddress: "AF-B (no address)",
	AFMultiCell: "AF-C (multiple cells)", AFMultiAddress: "AF-D (multiple addresses)",
}

// String names the AF class.
func (k AFKind) String() string {
	if s, ok := afNames[k]; ok {
		return s
	}
	return fmt.Sprintf("AFKind(%d)", int(k))
}

// Cell addresses a single bit in a memory: word address Addr, bit
// position Bit (0 = LSB).
type Cell struct {
	Addr int `json:"addr"`
	Bit  int `json:"bit"`
}

// String renders the cell as "addr.bit".
func (c Cell) String() string { return fmt.Sprintf("%d.%d", c.Addr, c.Bit) }

// Splitmix64 applies the splitmix64 finalizer — the shared primitive
// behind every derived-seed scheme in this module (per-sample sweep
// seeds, per-device fleet seeds). Determinism contracts depend on this
// exact arithmetic; change it nowhere and never.
func Splitmix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Less orders cells by address then bit, for deterministic reports.
func (c Cell) Less(o Cell) bool {
	if c.Addr != o.Addr {
		return c.Addr < o.Addr
	}
	return c.Bit < o.Bit
}

// Fault is a behavioural fault descriptor.
type Fault struct {
	// Class selects the fault model.
	Class Class
	// Victim is the faulty cell (for ADOF, the faulty address is
	// Victim.Addr and Bit is ignored).
	Victim Cell
	// Aggressor is the coupling aggressor cell; meaningful only for
	// CFin, CFid and CFst.
	Aggressor Cell
	// Dir is the sensitizing transition direction for TF*, CFin, CFid.
	Dir Dir
	// Value is the forced value for CFid/CFst, and the polarity of a
	// DRF (true: stored 1 is lost / NWRC write-1 fails).
	Value bool
	// AggState is the aggressor state that activates a CFst.
	AggState bool
	// AF is the address-decoder fault class for ADOF.
	AF AFKind
	// Partner is the second address involved in AFMultiCell /
	// AFMultiAddress.
	Partner int
	// Bit2 is the second column of a CDF bit swap.
	Bit2 int
}

// String gives a compact human-readable description.
func (f Fault) String() string {
	switch f.Class {
	case CFin:
		return fmt.Sprintf("CFin<%s;inv> agg=%s vic=%s", f.Dir, f.Aggressor, f.Victim)
	case CFid:
		return fmt.Sprintf("CFid<%s;%s> agg=%s vic=%s", f.Dir, bit(f.Value), f.Aggressor, f.Victim)
	case CFst:
		return fmt.Sprintf("CFst<%s;%s> agg=%s vic=%s", bit(f.AggState), bit(f.Value), f.Aggressor, f.Victim)
	case TFUp, TFDown:
		return fmt.Sprintf("%s vic=%s", f.Class, f.Victim)
	case ADOF:
		return fmt.Sprintf("%s addr=%d partner=%d", f.AF, f.Victim.Addr, f.Partner)
	case CDF:
		return fmt.Sprintf("CDF bits %d<->%d", f.Victim.Bit, f.Bit2)
	case DRF:
		return fmt.Sprintf("DRF<%s> vic=%s", bit(f.Value), f.Victim)
	default:
		return fmt.Sprintf("%s vic=%s", f.Class, f.Victim)
	}
}

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// SameSite reports whether two faults affect the same victim cell. The
// diagnosis engines use it to match located faults against injected
// ones.
func (f Fault) SameSite(o Fault) bool { return f.Victim == o.Victim }

// Sort orders a fault slice by victim cell then class, in place, so
// diagnosis logs and reports are deterministic. slices.SortFunc rather
// than sort.Slice: the generic sort does not allocate, and the sweep
// engine sorts a located set per sample.
func Sort(fs []Fault) {
	slices.SortFunc(fs, func(a, b Fault) int {
		if a.Victim != b.Victim {
			return compareCells(a.Victim, b.Victim)
		}
		return cmp.Compare(a.Class, b.Class)
	})
}

// SortCells orders a cell slice by address then bit, in place.
func SortCells(cs []Cell) {
	slices.SortFunc(cs, compareCells)
}

func compareCells(a, b Cell) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Bit, b.Bit)
}

// Generator produces reproducible random fault lists for a memory of n
// words by c bits, following the paper's evaluation assumptions: a
// defect rate expressed as the fraction of defective cells, spread
// uniformly over a chosen set of classes with equal likelihood
// (Sec. 4.2 uses four defect types with equal probability).
type Generator struct {
	rng *rand.Rand
	src rand.Source
	n   int
	c   int
}

// NewGenerator returns a Generator for an n x c memory seeded
// deterministically.
func NewGenerator(n, c int, seed int64) *Generator {
	if n <= 0 || c <= 0 {
		panic(fmt.Sprintf("fault: invalid memory geometry %dx%d", n, c))
	}
	src := &laggedSource{}
	src.Seed(seed)
	return &Generator{rng: rand.New(src), src: src, n: n, c: c}
}

// Reseed rewinds the generator to the deterministic stream of the given
// seed without allocating, so sweep workers can draw per-sample
// reproducible faults from one long-lived Generator. The stream is
// bit-identical to math/rand's for the same seed (see laggedSource),
// but the rewind is O(1) instead of a full state refill.
func (g *Generator) Reseed(seed int64) { g.src.Seed(seed) }

// Random generates one random fault of the given class, with victim
// (and aggressor, where applicable) drawn uniformly.
func (g *Generator) Random(class Class) Fault {
	f := Fault{Class: class, Victim: g.randomCell()}
	switch class {
	case TFUp:
		f.Dir = Up
	case TFDown:
		f.Dir = Down
	case CFin:
		f.Aggressor = g.distinctCell(f.Victim)
		f.Dir = Dir(g.rng.Intn(2))
	case CFid:
		f.Aggressor = g.distinctCell(f.Victim)
		f.Dir = Dir(g.rng.Intn(2))
		f.Value = g.rng.Intn(2) == 1
	case CFst:
		f.Aggressor = g.distinctCell(f.Victim)
		f.AggState = g.rng.Intn(2) == 1
		f.Value = g.rng.Intn(2) == 1
	case ADOF:
		f.AF = AFKind(g.rng.Intn(4))
		f.Partner = g.distinctAddr(f.Victim.Addr)
	case CDF:
		f.Bit2 = f.Victim.Bit
		for f.Bit2 == f.Victim.Bit {
			if g.c == 1 {
				break
			}
			f.Bit2 = g.rng.Intn(g.c)
		}
	case DRF:
		f.Value = g.rng.Intn(2) == 1
	}
	return f
}

// Scratch is Population's reusable working storage: an occupancy
// bitmap and a slot table over a memory's cells, and the draw buffer
// the slots index. The zero value is ready to use. It grows to the
// largest memory it serves, and every Population call leaves the
// bitmap clear, so one Scratch serves any number of draws, on memories
// of any geometry, one draw at a time.
type Scratch struct {
	taken []uint64 // victim bitmap, bit a*c+b for cell (a, b)
	slot  []int32  // slot[cell] = index into buf; valid while taken
	buf   []Fault  // the population in draw order
}

// fit sizes the scratch for a memory of cells cells.
func (sc *Scratch) fit(cells int) {
	if len(sc.slot) < cells {
		sc.slot = make([]int32, cells)
		sc.taken = make([]uint64, (cells+63)/64)
	}
}

// take claims cell for the fault that is about to become buf[slot]; it
// reports false, claiming nothing, if the cell is already a victim.
func (sc *Scratch) take(cell, slot int) bool {
	w, m := cell>>6, uint64(1)<<uint(cell&63)
	if sc.taken[w]&m != 0 {
		return false
	}
	sc.taken[w] |= m
	sc.slot[cell] = int32(slot)
	return true
}

// Population draws the paper's defect-rate model for one memory:
// rate (e.g. 0.01) of the n*c cells are defective, each defect's type
// (one class group of types) drawn uniformly and then its class within
// the group — the Sec. 4.2 model, "all four different defect types
// occur with equal likelihood", where e.g. the stuck-at type covers
// both SA0 and SA1. A draw whose victim is already taken is redrawn.
// Then drfs data-retention faults are placed on free victims the same
// way, giving up with an error after 100*drfs+100 DRF draws.
//
// Victims are distinct, so the population is appended to dst in
// victim order, which is exactly Sort's (victim, class) order. On
// error dst is returned unchanged. sc is the working storage; it
// holds nothing between calls.
func (g *Generator) Population(sc *Scratch, dst []Fault, rate float64, types [][]Class, drfs int) ([]Fault, error) {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("fault: defect rate %v out of [0,1]", rate))
	}
	if len(types) == 0 {
		panic("fault: empty type set")
	}
	for _, tc := range types {
		if len(tc) == 0 {
			panic("fault: empty class group")
		}
	}
	cells := g.n * g.c
	sc.fit(cells)
	total := int(float64(cells) * rate)
	buf := slices.Grow(sc.buf[:0], PopulationSize(cells, rate, drfs))
	for len(buf) < total {
		group := types[g.rng.Intn(len(types))]
		f := g.Random(group[g.rng.Intn(len(group))])
		if sc.take(g.cellIndex(f.Victim), len(buf)) {
			buf = append(buf, f)
		}
	}
	var err error
	for placed, attempts := 0, 0; placed < drfs; attempts++ {
		if attempts > 100*drfs+100 {
			err = fmt.Errorf("cannot place %d DRFs", drfs)
			break
		}
		f := g.Random(DRF)
		if sc.take(g.cellIndex(f.Victim), len(buf)) {
			buf = append(buf, f)
			placed++
		}
	}
	sc.buf = buf
	taken := sc.taken[:(cells+63)/64]
	if err != nil {
		clear(taken)
		return dst, err
	}
	dst = slices.Grow(dst, len(buf))
	for w, word := range taken {
		if word == 0 {
			continue
		}
		taken[w] = 0
		for base := w << 6; word != 0; word &= word - 1 {
			dst = append(dst, buf[sc.slot[base+bits.TrailingZeros64(word)]])
		}
	}
	return dst, nil
}

// PopulationSize is the length of every population Population draws
// over cells cells at the given rate with drfs DRFs: the typed faults,
// then as many DRFs as there are free cells for. Only a draw that fails
// returns fewer.
func PopulationSize(cells int, rate float64, drfs int) int {
	total := int(float64(cells) * rate)
	return total + min(drfs, cells-total)
}

// cellIndex is c's bit in Scratch's bitmap: cell order is (Addr, Bit)
// order.
func (g *Generator) cellIndex(c Cell) int { return c.Addr*g.c + c.Bit }

func (g *Generator) randomCell() Cell {
	return Cell{Addr: g.rng.Intn(g.n), Bit: g.rng.Intn(g.c)}
}

func (g *Generator) distinctCell(c Cell) Cell {
	for {
		o := g.randomCell()
		if o != c {
			return o
		}
	}
}

func (g *Generator) distinctAddr(a int) int {
	if g.n == 1 {
		return a
	}
	for {
		o := g.rng.Intn(g.n)
		if o != a {
			return o
		}
	}
}

// PaperDefectClasses returns the defect classes the paper's case study
// assumes occur with equal likelihood (Sec. 4.2, following [8]): four
// defect types — stuck-at, transition, idempotent coupling and
// inversion coupling — expanded into their polarity/direction variants.
// Stuck-open faults are modelled (SOF) but kept out of this mix: a
// read of a stuck-open cell repeats the column's previous sense value,
// which March C-/CW cannot distinguish under solid-along-address data,
// so neither scheme under comparison detects them (see the coverage
// table of experiment E6).
func PaperDefectClasses() []Class {
	return []Class{SA0, SA1, TFUp, TFDown, CFid, CFin}
}

// PaperDefectTypes groups PaperDefectClasses into the paper's four
// equally likely defect types: stuck-at, transition, idempotent
// coupling and inversion coupling. The baseline's M1 element covers the
// first three (75 % of the population, Sec. 4.2); inversion coupling
// needs the fixed extra elements.
func PaperDefectTypes() [][]Class {
	return [][]Class{
		{SA0, SA1},
		{TFUp, TFDown},
		{CFid},
		{CFin},
	}
}

// M1Covered reports whether the baseline scheme's M1 element class-
// covers the fault: stuck-at, transition and idempotent-coupling
// defects (3 of the 4 paper types, the 75 % of Sec. 4.2). Inversion
// couplings and everything outside the paper mix fall to the fixed
// extra elements.
func M1Covered(f Fault) bool {
	switch f.Class {
	case SA0, SA1, TFUp, TFDown, CFid:
		return true
	default:
		return false
	}
}
