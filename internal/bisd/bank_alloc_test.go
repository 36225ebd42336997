package bisd

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
)

// TestBankRunnerSteadyStateAllocs pins the banked batch loop's
// allocation budget: once the runner's shadows, SPCs and per-lane
// output storage are fitted to the fleet shape, a full March pass over
// 64 clean lanes allocates nothing. The reports come back in the
// runner's reused Report and MemoryResult structs, so neither the
// schedule loop nor the result hand-off costs an allocation; the
// sram-level TestBankOpsZeroAlloc pins the bank half.
func TestBankRunnerSteadyStateAllocs(t *testing.T) {
	banks := []*sram.MemoryBank{
		sram.NewMemoryBank(64, 16),
		sram.NewMemoryBank(32, 8),
	}
	r := NewBankRunner()
	test := march.MarchCW(16)
	opt := ProposedOptions{ClockNs: 10}
	run := func() {
		if _, err := r.Run(banks, sram.BankLanes, test, opt); err != nil {
			t.Fatal(err)
		}
	}
	run() // fit shadows, SPCs, report storage, scratch
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 0 {
		t.Fatalf("steady-state batch run allocates %.0f times (%.2f/device), want 0",
			allocs, allocs/sram.BankLanes)
	}
}

// TestBankRunnerFaultyLanesAllocOnlyForRecords extends the pin to
// faulty fleets: the failure records land in the runner's batch
// failure buffer and the located cells in each lane's reused list, so
// once a first batch has grown them, a repeat of the same faulty batch
// allocates nothing — not per record, per located cell or per step.
func TestBankRunnerFaultyLanesAllocOnlyForRecords(t *testing.T) {
	banks := []*sram.MemoryBank{sram.NewMemoryBank(48, 10)}
	for l := 0; l < sram.BankLanes; l++ {
		for _, f := range []fault.Fault{
			{Class: fault.SA1, Victim: fault.Cell{Addr: l % 48, Bit: l % 10}},
			{Class: fault.TFDown, Victim: fault.Cell{Addr: (l + 7) % 48, Bit: (l + 3) % 10}},
		} {
			if err := banks[0].Inject(l, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := NewBankRunner()
	test := march.MarchCW(10)
	opt := ProposedOptions{ClockNs: 10}
	run := func() {
		if _, err := r.Run(banks, sram.BankLanes, test, opt); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(5, run)
	if allocs > 0 {
		t.Fatalf("faulty-fleet batch run allocates %.0f times (%.2f/device), want 0",
			allocs, allocs/sram.BankLanes)
	}
}
