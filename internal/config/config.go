// Package config owns the plan schema: SoC e-SRAM fleets for the
// diagnosis engines, with per-memory geometry and defect profile plus
// the diagnosis clock, their one validator, the paper's presets and the
// recycling fault Builder. memtest re-exports SoC and Memory as Plan
// and MemorySpec; configurations round-trip through JSON so fleets can
// be described in files for the command-line tools.
package config

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/sram"
)

// Sentinel errors for invalid plans. Validation errors wrap one of
// these (with the plan or memory name attached). They keep the memtest
// prefix because memtest re-exports them and the service puts their
// text in 400 bodies.
var (
	// ErrNoMemories reports a plan with an empty fleet.
	ErrNoMemories = errors.New("memtest: plan has no memories")
	// ErrBadClock reports a non-positive diagnosis clock period.
	ErrBadClock = errors.New("memtest: invalid clock period")
	// ErrBadGeometry reports a memory with non-positive words or width.
	ErrBadGeometry = errors.New("memtest: invalid memory geometry")
	// ErrBadDefectRate reports a defect rate outside [0,1].
	ErrBadDefectRate = errors.New("memtest: defect rate outside [0,1]")
	// ErrBadDRFCount reports a negative data-retention-fault count.
	ErrBadDRFCount = errors.New("memtest: negative DRF count")
	// ErrDuplicateMemoryName reports two memories sharing one name;
	// results are keyed by name, so names must be unique.
	ErrDuplicateMemoryName = errors.New("memtest: duplicate memory name")
)

// Memory describes one e-SRAM and its (synthetic) defect population.
type Memory struct {
	// Name labels the instance, e.g. "pktbuf0".
	Name string `json:"name"`
	// Words and Width are the geometry (n and c).
	Words int `json:"words"`
	Width int `json:"width"`
	// DefectRate is the fraction of defective cells (0.01 in the
	// paper's case study); zero means a clean memory.
	DefectRate float64 `json:"defect_rate"`
	// DRFCount injects this many additional data-retention faults,
	// the defect class the paper adds NWRTM for.
	DRFCount int `json:"drf_count"`
	// Seed makes the defect draw reproducible. memtest's RunFleet
	// derives a distinct per-device seed from it.
	Seed int64 `json:"seed"`
}

// Validate rejects non-physical entries with typed sentinel errors.
func (m Memory) Validate() error {
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

// SoC is a fleet of distributed e-SRAMs sharing one BISD controller —
// the plan a memtest Session diagnoses.
type SoC struct {
	// Name labels the configuration.
	Name string `json:"name"`
	// ClockNs is the diagnosis clock period t in ns.
	ClockNs float64 `json:"clock_ns"`
	// Memories is the fleet.
	Memories []Memory `json:"memories"`
}

// Validate checks the whole fleet with typed sentinel errors; memory
// names must be unique.
func (s SoC) Validate() error {
	if len(s.Memories) == 0 {
		return fmt.Errorf("%w: plan %q", ErrNoMemories, s.Name)
	}
	if s.ClockNs <= 0 {
		return fmt.Errorf("%w: plan %q clock %v ns", ErrBadClock, s.Name, s.ClockNs)
	}
	names := make(map[string]bool, len(s.Memories))
	for _, m := range s.Memories {
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

// WidestWidth returns the largest IO width in the fleet — the width
// the shared controller is sized for.
func (s SoC) WidestWidth() int {
	c := 0
	for _, m := range s.Memories {
		c = max(c, m.Width)
	}
	return c
}

// LargestWords returns the largest word count in the fleet.
func (s SoC) LargestWords() int {
	n := 0
	for _, m := range s.Memories {
		n = max(n, m.Words)
	}
	return n
}

// Marshal renders the configuration as indented JSON.
func (s SoC) Marshal() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// Builder draws one SoC's defect populations over and over, recycling
// the fault generators, one shared fault.Scratch and, for Build, the
// memories across draws — the allocation profile fleet workers need
// when diagnosing millions of per-device instances of the same plan.
// Each draw reseeds a memory's generator and re-draws its population,
// so the same per-memory seeds always give the same fault lists. The
// lists (per memory, sorted by victim) are the ground truth for
// evaluating diagnosis results. Not safe for concurrent use; give each
// worker its own Builder.
type Builder struct {
	soc  SoC
	mems []*sram.Memory
	gens []*fault.Generator
	sc   fault.Scratch
}

// NewBuilder validates the SoC and allocates its recyclable memories
// and generators once.
func NewBuilder(s SoC) (*Builder, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &Builder{
		soc:  s,
		mems: make([]*sram.Memory, len(s.Memories)),
		gens: make([]*fault.Generator, len(s.Memories)),
	}
	for i, mc := range s.Memories {
		b.mems[i] = sram.New(mc.Words, mc.Width)
		b.gens[i] = fault.NewGenerator(mc.Words, mc.Width, mc.Seed)
	}
	return b, nil
}

// Draw draws every memory's defect population into truth[i], reusing
// its storage, and builds no memory. A memory's population is its
// DefectRate share of cells drawn from the paper's four defect types,
// plus DRFCount DRFs on free victims, sorted by victim. A non-nil
// seeds overrides the per-memory seeds (len(seeds) must equal the
// memory count) — the per-device derived seeding fleet runs use.
// len(truth) must equal the memory count too.
func (b *Builder) Draw(seeds []int64, truth [][]fault.Fault) error {
	n := len(b.soc.Memories)
	if seeds != nil && len(seeds) != n {
		return fmt.Errorf("config: %d seeds for %d memories", len(seeds), n)
	}
	if len(truth) != n {
		return fmt.Errorf("config: %d fault lists for %d memories", len(truth), n)
	}
	types := fault.PaperDefectTypes()
	for i, mc := range b.soc.Memories {
		seed := mc.Seed
		if seeds != nil {
			seed = seeds[i]
		}
		b.gens[i].Reseed(seed)
		drawn, err := b.gens[i].Population(&b.sc, truth[i][:0], mc.DefectRate, types, mc.DRFCount)
		if err != nil {
			// Population's one error reads "cannot place N DRFs".
			return fmt.Errorf("config: memory %q %w", mc.Name, err)
		}
		truth[i] = drawn
	}
	return nil
}

// Build draws a fresh defect population and injects it into the
// recycled memories. seeds is as for Draw. The returned memories are
// owned by the Builder and valid only until the next Build; the
// ground-truth fault lists are freshly allocated and may be retained.
func (b *Builder) Build(seeds []int64) ([]*sram.Memory, [][]fault.Fault, error) {
	truth := make([][]fault.Fault, len(b.soc.Memories))
	if err := b.Draw(seeds, truth); err != nil {
		return nil, nil, err
	}
	for i, m := range b.mems {
		m.Reset()
		for _, f := range truth[i] {
			// A drawn population is victim-distinct, which is all
			// Inject asks of these classes, so a rejection is a bug.
			if err := m.Inject(f); err != nil {
				return nil, nil, fmt.Errorf("config: memory %q: drawn fault rejected: %w", b.soc.Memories[i].Name, err)
			}
		}
	}
	return b.mems, truth, nil
}

// Benchmark16 is the benchmark e-SRAM configuration of [16] used by the
// paper's case study: n = 512 words, c = 100 bits, t = 10 ns. The
// paper assumes 1 % of cells defective and, following [8]'s defect-to-
// fault mapping, a maximum of 256 observable faults per e-SRAM; the
// configuration draws those 256 faults directly (rate 0.005 of the
// 51,200 cells).
func Benchmark16() SoC {
	return SoC{
		Name:    "benchmark-[16]",
		ClockNs: 10,
		Memories: []Memory{
			{Name: "esram0", Words: 512, Width: 100, DefectRate: 0.005, Seed: 16},
		},
	}
}

// HeterogeneousExample is a small distributed fleet in the spirit of
// the paper's motivation: several buffers of different sizes and
// widths between computational blocks. The sizes are kept modest so
// the bit-accurate serial baseline (O((n·c)²) per shift pass) runs in
// seconds; paper-scale fleets use the analytic baseline mode.
func HeterogeneousExample() SoC {
	return SoC{
		Name:    "heterogeneous-example",
		ClockNs: 10,
		Memories: []Memory{
			{Name: "pktbuf", Words: 64, Width: 16, DefectRate: 0.005, Seed: 1},
			{Name: "hdrfifo", Words: 32, Width: 12, DefectRate: 0.01, Seed: 2},
			{Name: "statsq", Words: 48, Width: 8, DefectRate: 0.008, DRFCount: 2, Seed: 3},
			{Name: "dmadesc", Words: 16, Width: 10, DefectRate: 0, DRFCount: 1, Seed: 4},
		},
	}
}
