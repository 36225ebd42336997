package memtest

import (
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sram"
)

// MemorySpec describes one e-SRAM and its (synthetic) defect
// population.
type MemorySpec struct {
	// Name labels the instance, e.g. "pktbuf0".
	Name string `json:"name"`
	// Words and Width are the geometry (n and c).
	Words int `json:"words"`
	Width int `json:"width"`
	// DefectRate is the fraction of defective cells (0.01 in the
	// paper's case study); zero means a clean memory.
	DefectRate float64 `json:"defect_rate"`
	// DRFCount injects this many additional data-retention faults, the
	// defect class the paper adds NWRTM for.
	DRFCount int `json:"drf_count"`
	// Seed makes the defect draw reproducible. RunFleet derives a
	// distinct per-device seed from it.
	Seed int64 `json:"seed"`
}

// Validate rejects non-physical entries with typed sentinel errors.
func (m MemorySpec) Validate() error {
	if m.Words <= 0 || m.Width <= 0 {
		return fmt.Errorf("%w: memory %q is %dx%d", ErrBadGeometry, m.Name, m.Words, m.Width)
	}
	if m.DefectRate < 0 || m.DefectRate > 1 {
		return fmt.Errorf("%w: memory %q rate %v", ErrBadDefectRate, m.Name, m.DefectRate)
	}
	if m.DRFCount < 0 {
		return fmt.Errorf("%w: memory %q count %d", ErrBadDRFCount, m.Name, m.DRFCount)
	}
	return nil
}

// Plan is a fleet of distributed e-SRAMs sharing one BISD controller —
// the unit a Session diagnoses. Plans round-trip through JSON so fleets
// can be described in files for the command-line tools.
type Plan struct {
	// Name labels the configuration.
	Name string `json:"name"`
	// ClockNs is the diagnosis clock period t in ns.
	ClockNs float64 `json:"clock_ns"`
	// Memories is the fleet.
	Memories []MemorySpec `json:"memories"`
}

// Validate checks the whole plan with typed sentinel errors.
func (p Plan) Validate() error {
	if len(p.Memories) == 0 {
		return fmt.Errorf("%w: plan %q", ErrNoMemories, p.Name)
	}
	if p.ClockNs <= 0 {
		return fmt.Errorf("%w: plan %q clock %v ns", ErrBadClock, p.Name, p.ClockNs)
	}
	names := make(map[string]bool, len(p.Memories))
	for _, m := range p.Memories {
		if err := m.Validate(); err != nil {
			return err
		}
		if names[m.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateMemoryName, m.Name)
		}
		names[m.Name] = true
	}
	return nil
}

// WidestWidth returns the largest IO width in the plan — the width the
// shared controller is sized for.
func (p Plan) WidestWidth() int {
	c := 0
	for _, m := range p.Memories {
		if m.Width > c {
			c = m.Width
		}
	}
	return c
}

// LargestWords returns the largest word count in the plan.
func (p Plan) LargestWords() int {
	n := 0
	for _, m := range p.Memories {
		if m.Words > n {
			n = m.Words
		}
	}
	return n
}

// Marshal renders the plan as indented JSON.
func (p Plan) Marshal() ([]byte, error) { return json.MarshalIndent(p, "", "  ") }

// ParsePlan reads a JSON plan (the same format internal/config always
// used, so existing fleet files keep working) and validates it.
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

// soc converts the plan to the internal configuration type.
func (p Plan) soc() config.SoC {
	s := config.SoC{Name: p.Name, ClockNs: p.ClockNs, Memories: make([]config.Memory, len(p.Memories))}
	for i, m := range p.Memories {
		s.Memories[i] = config.Memory{
			Name: m.Name, Words: m.Words, Width: m.Width,
			DefectRate: m.DefectRate, DRFCount: m.DRFCount, Seed: m.Seed,
		}
	}
	return s
}

// planFromSoC converts an internal configuration to a public Plan.
func planFromSoC(s config.SoC) Plan {
	p := Plan{Name: s.Name, ClockNs: s.ClockNs, Memories: make([]MemorySpec, len(s.Memories))}
	for i, m := range s.Memories {
		p.Memories[i] = MemorySpec{
			Name: m.Name, Words: m.Words, Width: m.Width,
			DefectRate: m.DefectRate, DRFCount: m.DRFCount, Seed: m.Seed,
		}
	}
	return p
}

// Benchmark16 is the benchmark e-SRAM configuration of [16] used by the
// paper's case study: n = 512 words, c = 100 bits, t = 10 ns, 256
// observable faults.
func Benchmark16() Plan { return planFromSoC(config.Benchmark16()) }

// HeterogeneousExample is a small distributed fleet in the spirit of
// the paper's motivation: several buffers of different sizes and widths
// between computational blocks.
func HeterogeneousExample() Plan { return planFromSoC(config.HeterogeneousExample()) }

// Fleet is a built plan: behavioural memories with their defect
// populations injected, plus the ground truth those injections form.
// Engines receive a Fleet; its geometry accessors are the public
// surface third-party engines work against.
type Fleet struct {
	plan  Plan
	mems  []*sram.Memory
	truth [][]fault.Fault
}

// Len returns the number of memories in the fleet.
func (f *Fleet) Len() int { return len(f.mems) }

// ClockNs returns the plan's diagnosis clock period.
func (f *Fleet) ClockNs() float64 { return f.plan.ClockNs }

// MemoryName returns the i-th memory's configured name.
func (f *Fleet) MemoryName(i int) string { return f.plan.Memories[i].Name }

// Geometry returns the i-th memory's words and width.
func (f *Fleet) Geometry(i int) (words, width int) { return f.mems[i].N(), f.mems[i].C() }

// WidestWidth returns the fleet's largest IO width — the width the
// shared controller is sized for.
func (f *Fleet) WidestWidth() int { return f.plan.WidestWidth() }

// fleetBuilder builds the plan's fleet repeatedly on recycled storage:
// the behavioural memories and fault generators are allocated once and
// every build resets, reseeds and re-injects them, so a fleet worker
// diagnosing millions of devices stops paying ~an allocation per row
// per device. A single run builds once on a fresh one. Not safe for
// concurrent use; each fleet worker owns one.
type fleetBuilder struct {
	plan  Plan
	b     *config.Builder
	seeds []int64 // per-memory derived-seed scratch, reused across builds
}

// newFleetBuilder allocates the plan's recyclable fleet storage.
func (p Plan) newFleetBuilder() (*fleetBuilder, error) {
	cb, err := config.NewBuilder(p.soc())
	if err != nil {
		return nil, err
	}
	return &fleetBuilder{plan: p, b: cb, seeds: make([]int64, len(p.Memories))}, nil
}

// build instantiates the plan on the recycled storage. When derive is
// true, each memory's seed is replaced by a splitmix64 mix of base, the
// spec seed and the memory index — the deterministic per-device seeding
// RunFleet and WithSeed use; the same (base, plan) pair always builds
// the same fleet. The returned Fleet's memories are valid until the
// next build; its ground truth is freshly allocated (evaluated results
// may retain it).
func (fb *fleetBuilder) build(base int64, derive bool) (*Fleet, error) {
	var seeds []int64
	if derive {
		for i, m := range fb.plan.Memories {
			fb.seeds[i] = mixSeed(base, m.Seed, i)
		}
		seeds = fb.seeds
	}
	mems, truth, err := fb.b.Build(seeds)
	if err != nil {
		return nil, err
	}
	return &Fleet{plan: fb.plan, mems: mems, truth: truth}, nil
}

// mixSeed derives a per-(base, seed, index) seed with a splitmix64-
// style finalizer, so fleet devices draw independent defect populations
// deterministically, independent of worker scheduling.
func mixSeed(base, seed int64, idx int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(seed) + 0xbf58476d1ce4e5b9*uint64(idx+1)
	return int64(fault.Splitmix64(z))
}
