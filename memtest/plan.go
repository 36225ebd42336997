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

// Fleet is a built plan: the plan plus one behavioural memory per plan
// memory, with that device's faults injected. Engines receive a Fleet;
// its geometry accessors are the public surface third-party engines
// work against.
type Fleet struct {
	plan Plan
	mems []*sram.Memory
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

// mixSeed derives a per-(base, seed, index) seed with a splitmix64-
// style finalizer, so fleet devices draw independent defect populations
// deterministically, independent of worker scheduling.
func mixSeed(base, seed int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(seed) + 0xbf58476d1ce4e5b9*uint64(idx+1)
	return int64(fault.Splitmix64(z))
}
