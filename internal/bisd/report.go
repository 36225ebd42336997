// Package bisd implements the built-in self-diagnosis architectures the
// paper compares, at cycle accuracy:
//
//   - the proposed scheme (Fig. 3): a shared BISD controller (address
//     trigger, data background generator, control generator, comparator
//     array) with, local to each e-SRAM, an address generator, a
//     Serial-to-Parallel Converter on the write path and a Parallel-to-
//     Serial Converter on the read path;
//   - the baseline scheme of [7,8] (Fig. 1): the same shared controller
//     with a bi-directional serial cell interface per memory, which
//     identifies at most one fault per March element per direction and
//     therefore needs k iterations of its M1 element;
//   - the single-directional serial interface of [9,10], retained as a
//     second baseline to demonstrate serial fault masking.
//
// All memories are diagnosed in parallel; global cycle counts follow
// the widest/largest memory, as the paper's controller design does.
package bisd

import (
	"fmt"

	"repro/internal/fault"
)

// FailureRecord is one registered miscompare: the diagnosis information
// the scheme either stores for on-chip repair or scans out for off-line
// analysis (Sec. 3.1).
type FailureRecord struct {
	// Memory is the index of the e-SRAM in the fleet.
	Memory int `json:"memory"`
	// LogicalAddr is the controller-side address; PhysicalAddr is the
	// address inside the (possibly smaller, wrapped) memory.
	LogicalAddr  int `json:"logical_addr"`
	PhysicalAddr int `json:"physical_addr"`
	// Bit is the failing bit position.
	Bit int `json:"bit"`
	// Element and Background identify the March element execution;
	// Op is the read's index within the element's op list.
	Element    int `json:"element"`
	Background int `json:"background"`
	Op         int `json:"op"`
}

// String renders the record as a scan-out log line.
func (r FailureRecord) String() string {
	return fmt.Sprintf("mem %d addr %d(log %d) bit %d elem %d bg %d",
		r.Memory, r.PhysicalAddr, r.LogicalAddr, r.Bit, r.Element, r.Background)
}

// MemoryResult is the per-memory diagnosis outcome.
type MemoryResult struct {
	// Index is the memory's position in the fleet.
	Index int `json:"index"`
	// Words and Width are the memory geometry.
	Words int `json:"words"`
	Width int `json:"width"`
	// Failures are the registered miscompares in execution order.
	Failures []FailureRecord `json:"failures,omitempty"`
	// Located is the deduplicated, sorted set of failing cells.
	Located []fault.Cell `json:"located"`
}

// LocatedCell reports whether the cell is in the located set.
func (m MemoryResult) LocatedCell(c fault.Cell) bool {
	for _, l := range m.Located {
		if l == c {
			return true
		}
	}
	return false
}

// Report is the outcome of a fleet diagnosis run.
type Report struct {
	// Scheme names the architecture that produced the report.
	Scheme string `json:"scheme"`
	// Cycles is the total diagnosis clock cycle count (global, all
	// memories in parallel).
	Cycles int64 `json:"cycles"`
	// ClockNs is the diagnosis clock period t in nanoseconds.
	ClockNs float64 `json:"clock_ns"`
	// RetentionNs is wall-clock spent in retention pauses (delay-based
	// DRF testing); zero for the proposed NWRTM scheme.
	RetentionNs float64 `json:"retention_ns"`
	// Iterations is the number of M1 iterations the baseline needed
	// (its k); zero for the proposed scheme.
	Iterations int `json:"iterations"`
	// Memories holds per-memory results, fleet order.
	Memories []MemoryResult `json:"memories"`
}

// TimeNs is the total diagnosis time in nanoseconds: cycle time plus
// retention pauses.
func (r *Report) TimeNs() float64 {
	return float64(r.Cycles)*r.ClockNs + r.RetentionNs
}

// TotalLocated returns the number of located cells across the fleet.
func (r *Report) TotalLocated() int {
	n := 0
	for _, m := range r.Memories {
		n += len(m.Located)
	}
	return n
}

// collector gathers failure records and produces MemoryResults for the
// per-device engines. Records and located cells accumulate in reusable
// per-memory scratch, so a record costs an append and, in the steady
// state, no allocation; finish copies exact-size slices for the report
// to retain.
//
// Located sets are not small: on the paper's 512x100 e-SRAM with 256
// faults a device yields ~2,020 records over ~256 located cells, so a
// list scan per record would cost O(records x located). The collector
// therefore marks located cells in a bitmap with one bit per cell of
// the fleet, which reset clears through the located lists in
// O(located). Bank lanes need no collector: BankRunner deduplicates all
// 64 lanes at once with one lane-mask word per cell and keeps each
// lane's located list itself.
type collector struct {
	results []MemoryResult
	mems    []memScratch
	// seen is the located-set bitmap: memory i's cell (addr, bit) is
	// bit mems[i].base + addr*c_i + bit.
	seen []uint64
}

// memScratch is one memory's reusable record and located-cell scratch.
type memScratch struct {
	// recs holds the failure records, execution order.
	recs []FailureRecord
	// cells is the located set: unique failing cells, insertion order,
	// sorted at finish.
	cells []fault.Cell
	// base is the memory's first bit in the collector's seen bitmap;
	// width is its word width c.
	base, width int
}

func newCollector(geoms []geometry) *collector {
	c := &collector{mems: make([]memScratch, len(geoms))}
	n := 0
	for i, g := range geoms {
		c.mems[i].base, c.mems[i].width = n, g.c
		n += g.n * g.c
	}
	c.seen = make([]uint64, (n+63)/64)
	c.reset(geoms)
	return c
}

// reset prepares the collector for another run over the same fleet
// shape: the scratch is truncated in place, while the result structs
// are fresh — finish hands them to the report, which outlives the run.
func (c *collector) reset(geoms []geometry) {
	c.results = make([]MemoryResult, len(geoms))
	for i, g := range geoms {
		c.results[i] = MemoryResult{Index: i, Words: g.n, Width: g.c}
		m := &c.mems[i]
		for _, cell := range m.cells {
			k := m.base + cell.Addr*m.width + cell.Bit
			c.seen[k>>6] &^= 1 << uint(k&63)
		}
		m.recs = m.recs[:0]
		m.cells = m.cells[:0]
	}
}

type geometry struct{ n, c int }

func (c *collector) record(rec FailureRecord) {
	m := &c.mems[rec.Memory]
	m.recs = append(m.recs, rec)
	c.recordCell(rec.Memory, fault.Cell{Addr: rec.PhysicalAddr, Bit: rec.Bit})
}

func (c *collector) recordCell(mem int, cell fault.Cell) {
	m := &c.mems[mem]
	k := m.base + cell.Addr*m.width + cell.Bit
	w, b := k>>6, uint64(1)<<uint(k&63)
	if c.seen[w]&b != 0 {
		return
	}
	c.seen[w] |= b
	m.cells = append(m.cells, cell)
}

func (c *collector) finish() []MemoryResult {
	for i := range c.results {
		m := &c.mems[i]
		if n := len(m.recs); n > 0 {
			fs := make([]FailureRecord, n)
			copy(fs, m.recs)
			c.results[i].Failures = fs
		}
		fault.SortCells(m.cells)
		// Never nil: an empty located set must still marshal as [].
		cells := make([]fault.Cell, len(m.cells))
		copy(cells, m.cells)
		c.results[i].Located = cells
	}
	return c.results
}
