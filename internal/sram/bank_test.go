package sram

import (
	"testing"

	"repro/internal/fault"
)

// TestBankRejectedInjectLeavesNoSpecialCell: a coupling fault whose
// aggressor is out of range is refused, and the refusal must leave the
// bank as it was — no special cell materializes at the victim.
func TestBankRejectedInjectLeavesNoSpecialCell(t *testing.T) {
	b := NewMemoryBank(4, 4)
	if err := b.Inject(3, fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 0, Bit: 2}}); err != nil {
		t.Fatal(err)
	}
	specials := len(b.cells)
	for _, class := range []fault.Class{fault.CFin, fault.CFid, fault.CFst} {
		f := fault.Fault{Class: class, Victim: fault.Cell{Addr: 1, Bit: 1},
			Aggressor: fault.Cell{Addr: 9, Bit: 0}, Value: true}
		if err := b.Inject(0, f); err == nil {
			t.Fatalf("%v with an out-of-range aggressor was accepted", class)
		}
		if _, special := b.PeekLane(1, 1, 0); special {
			t.Fatalf("rejected %v left its victim cell special", class)
		}
		if got := len(b.cells); got != specials {
			t.Fatalf("rejected %v: %d special cells, want %d", class, got, specials)
		}
	}
}
