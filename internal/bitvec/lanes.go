package bitvec

// Lane primitive for bit-sliced fleet simulation: the fleet bank
// (internal/sram.MemoryBank) packs 64 devices one per uint64 bit lane,
// cell-major — word w of a cell holds bit l = device l's stored value.
// The scalar word a fault-free device would hold broadcasts to a full
// lane word with LaneMask.

// LaneMask broadcasts a scalar bit across all 64 lanes: all-ones when b
// is set, zero otherwise.
func LaneMask(b bool) uint64 {
	if b {
		return ^uint64(0)
	}
	return 0
}
