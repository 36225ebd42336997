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
// (SOF/ADOF/CDF) is refused loudly at load instead of being diagnosed
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

// drawTruth draws device seed's fault lists on w into fresh lists, one
// per plan memory — what runBatch hands batchRunner.load.
func drawTruth(t *testing.T, w *fleetWorker, seed int64) [][]fault.Fault {
	t.Helper()
	truth := make([][]fault.Fault, len(w.plan.Memories))
	if err := w.b.Draw(w.deriveSeeds(seed), truth); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return truth
}

func TestPlanBuildsAreAlwaysBankable(t *testing.T) {
	const seeds = 64
	for _, plan := range []Plan{HeterogeneousExample(), Benchmark16(), densePlan()} {
		t.Run(plan.Name, func(t *testing.T) {
			fb, err := newFleetWorker(plan, proposedEngine{})
			if err != nil {
				t.Fatal(err)
			}
			br := proposedEngine{}.newBatchRunner(plan)
			for seed := range seeds {
				truth := drawTruth(t, fb, int64(seed))
				if err := br.load(seed%sram.BankLanes, truth); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestBatchLoadRejectsUnbankableFault(t *testing.T) {
	plan := smallPlan()
	fb, err := newFleetWorker(plan, proposedEngine{})
	if err != nil {
		t.Fatal(err)
	}
	truth := drawTruth(t, fb, 5)
	// Plans never draw SOF, so plant one on a free cell of the last
	// memory's fault list by hand.
	last := len(truth) - 1
	taken := map[fault.Cell]bool{}
	for _, flt := range truth[last] {
		taken[flt.Victim] = true
	}
	var victim fault.Cell
	for taken[victim] {
		victim.Bit++
	}
	truth[last] = append(truth[last], fault.Fault{Class: fault.SOF, Victim: victim})

	br := proposedEngine{}.newBatchRunner(plan)
	err = br.load(0, truth)
	if !errors.Is(err, sram.ErrUnbankable) {
		t.Fatalf("load of a fleet with an SOF = %v, want an error wrapping sram.ErrUnbankable", err)
	}
	if name := plan.Memories[last].Name; !strings.Contains(err.Error(), name) {
		t.Fatalf("load error %q does not name memory %q", err, name)
	}
}

// TestFleetDrawAllocFree pins the banked path's per-device draw: once
// a worker's truth arena has grown, drawing a device's fault lists
// into it allocates nothing.
func TestFleetDrawAllocFree(t *testing.T) {
	for _, plan := range []Plan{HeterogeneousExample(), Benchmark16()} {
		t.Run(plan.Name, func(t *testing.T) {
			fb, err := newFleetWorker(plan, proposedEngine{})
			if err != nil {
				t.Fatal(err)
			}
			truth := make([][]fault.Fault, len(plan.Memories))
			for seed := range int64(8) {
				if err := fb.b.Draw(fb.deriveSeeds(seed), truth); err != nil {
					t.Fatal(err)
				}
			}
			seed := int64(0)
			allocs := testing.AllocsPerRun(50, func() {
				seed++
				if err := fb.b.Draw(fb.deriveSeeds(seed%8), truth); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("warm draw allocates %.0f times per device, want 0", allocs)
			}
		})
	}
}
