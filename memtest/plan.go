package memtest

import (
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sram"
)

// MemorySpec describes one e-SRAM and its (synthetic) defect
// population. Its schema and validation live in internal/config.
type MemorySpec = config.Memory

// Plan is a fleet of distributed e-SRAMs sharing one BISD controller —
// the unit a Session diagnoses. Plans round-trip through JSON so fleets
// can be described in files for the command-line tools. Its schema and
// validation live in internal/config.
type Plan = config.SoC

// ParsePlan reads a JSON plan, as written by Plan.Marshal, and
// validates it with Plan.Validate.
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return Plan{}, fmt.Errorf("memtest: parse plan: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Benchmark16 is the benchmark e-SRAM configuration of [16] used by the
// paper's case study: n = 512 words, c = 100 bits, t = 10 ns, 256
// observable faults.
func Benchmark16() Plan { return config.Benchmark16() }

// HeterogeneousExample is a small distributed fleet in the spirit of
// the paper's motivation: several buffers of different sizes and widths
// between computational blocks.
func HeterogeneousExample() Plan { return config.HeterogeneousExample() }

// Fleet is a built plan: the plan plus each memory's ground-truth
// fault list, and, on the per-device path, behavioural memories with
// those faults injected. Engines receive a Fleet; its geometry
// accessors are the public surface third-party engines work against.
// A fleet given to BatchRunner.Load carries fault lists and geometry
// only, with no memories.
type Fleet struct {
	plan  Plan
	mems  []*sram.Memory
	truth [][]fault.Fault
}

// Len returns the number of memories in the fleet.
func (f *Fleet) Len() int { return len(f.plan.Memories) }

// ClockNs returns the plan's diagnosis clock period.
func (f *Fleet) ClockNs() float64 { return f.plan.ClockNs }

// MemoryName returns the i-th memory's configured name.
func (f *Fleet) MemoryName(i int) string { return f.plan.Memories[i].Name }

// Geometry returns the i-th memory's words and width.
func (f *Fleet) Geometry(i int) (words, width int) {
	m := f.plan.Memories[i]
	return m.Words, m.Width
}

// WidestWidth returns the fleet's largest IO width — the width the
// shared controller is sized for.
func (f *Fleet) WidestWidth() int { return f.plan.WidestWidth() }

// fleetBuilder draws the plan's fault lists, or builds its whole fleet,
// repeatedly on recycled storage: the fault generators, draw scratch
// and behavioural memories are allocated once. The banked fleet path
// only draws lists; the per-device path builds, resetting and
// re-injecting the memories, so a worker diagnosing millions of
// devices stops paying ~an allocation per row per device. A single run
// builds once on a fresh one. Not safe for concurrent use; each fleet
// worker owns one.
type fleetBuilder struct {
	plan  Plan
	b     *config.Builder
	seeds []int64 // per-memory derived-seed scratch, reused across builds
}

// newFleetBuilder allocates p's recyclable fleet storage.
func newFleetBuilder(p Plan) (*fleetBuilder, error) {
	cb, err := config.NewBuilder(p)
	if err != nil {
		return nil, err
	}
	return &fleetBuilder{plan: p, b: cb, seeds: make([]int64, len(p.Memories))}, nil
}

// deriveSeeds replaces each memory's seed by a splitmix64 mix of base,
// the spec seed and the memory index — the deterministic per-device
// seeding RunFleet and WithSeed use — into the reused seed scratch.
func (fb *fleetBuilder) deriveSeeds(base int64) []int64 {
	for i, m := range fb.plan.Memories {
		fb.seeds[i] = mixSeed(base, m.Seed, i)
	}
	return fb.seeds
}

// build instantiates the plan on the recycled storage, with derived
// seeds when derive is true and the plan's literal seeds otherwise;
// the same (base, plan) pair always builds the same fleet. The
// returned Fleet's memories are valid until the next build; its
// ground truth is freshly allocated.
func (fb *fleetBuilder) build(base int64, derive bool) (*Fleet, error) {
	var seeds []int64
	if derive {
		seeds = fb.deriveSeeds(base)
	}
	mems, truth, err := fb.b.Build(seeds)
	if err != nil {
		return nil, err
	}
	return &Fleet{plan: fb.plan, mems: mems, truth: truth}, nil
}

// draw draws into truth, one list per memory and reusing each list's
// storage, the fault lists build(base, true) would inject. It builds
// no memory and, once truth's lists have grown, allocates nothing.
func (fb *fleetBuilder) draw(base int64, truth [][]fault.Fault) error {
	return fb.b.Draw(fb.deriveSeeds(base), truth)
}

// truthArena returns fault lists for lanes devices, one per memory of
// the plan, each with room for exactly the population draw writes into
// it, all cut from one slab: drawing into the arena never allocates,
// from its first device on.
func (fb *fleetBuilder) truthArena(lanes int) [][][]fault.Fault {
	nm := len(fb.plan.Memories)
	per := 0
	for _, m := range fb.plan.Memories {
		per += fault.PopulationSize(m.Words*m.Width, m.DefectRate, m.DRFCount)
	}
	slab := make([]fault.Fault, lanes*per)
	lists := make([][]fault.Fault, lanes*nm)
	arena := make([][][]fault.Fault, lanes)
	for l := range arena {
		arena[l] = lists[l*nm : (l+1)*nm : (l+1)*nm]
		for i, m := range fb.plan.Memories {
			n := fault.PopulationSize(m.Words*m.Width, m.DefectRate, m.DRFCount)
			arena[l][i], slab = slab[:0:n], slab[n:]
		}
	}
	return arena
}

// mixSeed derives a per-(base, seed, index) seed with a splitmix64-
// style finalizer, so fleet devices draw independent defect populations
// deterministically, independent of worker scheduling.
func mixSeed(base, seed int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(seed) + 0xbf58476d1ce4e5b9*uint64(idx+1)
	return int64(fault.Splitmix64(z))
}
