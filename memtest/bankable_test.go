package memtest

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sram"
)

// This file pins the invariant the fleet's single batch path rests on:
// a Plan draws only the paper's defect mix plus DRFs, and every one of
// those classes is bankable, so the bit-sliced bank can take every
// device a fleet builds. A fleet that does hold an unbankable fault
// (SOF/ADOF/CDF) is refused loudly at Load instead of being diagnosed
// wrongly.

// densePlan packs small memories with every cell defective, plus one
// half-defective memory that also places DRFs (a fully defective
// memory has no free victim left for a DRF).
func densePlan() Plan {
	return Plan{
		Name:    "dense",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "full0", Words: 8, Width: 4, DefectRate: 1, Seed: 41},
			{Name: "full1", Words: 5, Width: 7, DefectRate: 1, Seed: 42},
			{Name: "half", Words: 16, Width: 6, DefectRate: 0.5, DRFCount: 6, Seed: 43},
		},
	}
}

func TestPlanBuildsAreAlwaysBankable(t *testing.T) {
	const seeds = 64
	for _, plan := range []Plan{HeterogeneousExample(), Benchmark16(), densePlan()} {
		t.Run(plan.Name, func(t *testing.T) {
			fb, err := newFleetBuilder(plan)
			if err != nil {
				t.Fatal(err)
			}
			banks := make([]*sram.MemoryBank, len(plan.Memories))
			for i, m := range plan.Memories {
				banks[i] = sram.NewMemoryBank(m.Words, m.Width)
			}
			for seed := range seeds {
				f, err := fb.build(int64(seed), true)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				lane := seed % sram.BankLanes
				for i, m := range f.mems {
					if lane == 0 {
						banks[i].Reset()
					}
					ok, err := banks[i].LoadLane(lane, m.Faults())
					if err != nil {
						t.Fatalf("seed %d memory %q: %v", seed, f.MemoryName(i), err)
					}
					if !ok {
						t.Fatalf("seed %d memory %q drew an unbankable fault", seed, f.MemoryName(i))
					}
				}
			}
		})
	}
}

func TestBatchLoadRejectsUnbankableFault(t *testing.T) {
	plan := smallPlan()
	fb, err := newFleetBuilder(plan)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fb.build(5, true)
	if err != nil {
		t.Fatal(err)
	}
	// Plans never draw SOF, so plant one on a free cell of the last
	// memory by hand.
	last := len(f.mems) - 1
	m := f.mems[last]
	taken := map[fault.Cell]bool{}
	for _, flt := range m.Faults() {
		taken[flt.Victim] = true
	}
	var victim fault.Cell
	for taken[victim] {
		victim.Bit++
	}
	if err := m.Inject(fault.Fault{Class: fault.SOF, Victim: victim}); err != nil {
		t.Fatal(err)
	}

	br := proposedEngine{}.NewBatchRunner()
	err = br.Load(0, f)
	if !errors.Is(err, sram.ErrUnbankable) {
		t.Fatalf("Load of a fleet with an SOF = %v, want an error wrapping sram.ErrUnbankable", err)
	}
	if name := f.MemoryName(last); !strings.Contains(err.Error(), name) {
		t.Fatalf("Load error %q does not name memory %q", err, name)
	}
}
