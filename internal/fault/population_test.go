package fault_test

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sram"
)

// This file pins config.Builder's one-pass draw (fault.Population over
// a shared Scratch) against a copy of the algorithm it replaced: a
// map-deduplicated typed draw, fault.Sort, DRFs redrawn whenever
// sram.Memory.Inject rejects them, and a final fault.Sort. Every RNG
// call must line up, so the fault lists must be equal value for value,
// and a DRF-saturated memory must fail with the same error text.

// refTyped is the old map-deduplicated, sorted typed draw.
func refTyped(g *fault.Generator, mc config.Memory, types [][]fault.Class) []fault.Fault {
	total := int(float64(mc.Words*mc.Width) * mc.DefectRate)
	used := make(map[fault.Cell]bool, total)
	out := make([]fault.Fault, 0, total)
	for len(out) < total {
		group := types[g.Intn(len(types))]
		f := g.Random(group[g.Intn(len(group))])
		if used[f.Victim] {
			continue
		}
		used[f.Victim] = true
		out = append(out, f)
	}
	fault.Sort(out)
	return out
}

// refInject is the old per-memory build: inject the typed draw into
// the fault-free m, place DRFs by Inject rejection, sort the truth.
func refInject(m *sram.Memory, g *fault.Generator, mc config.Memory) ([]fault.Fault, error) {
	var injected []fault.Fault
	for _, f := range refTyped(g, mc, fault.PaperDefectTypes()) {
		if err := m.Inject(f); err != nil {
			return nil, fmt.Errorf("config: memory %q: %v", mc.Name, err)
		}
		injected = append(injected, f)
	}
	for placed, attempts := 0, 0; placed < mc.DRFCount; attempts++ {
		if attempts > 100*mc.DRFCount+100 {
			return nil, fmt.Errorf("config: memory %q cannot place %d DRFs", mc.Name, mc.DRFCount)
		}
		f := g.Random(fault.DRF)
		if err := m.Inject(f); err != nil {
			continue
		}
		injected = append(injected, f)
		placed++
	}
	fault.Sort(injected)
	return injected, nil
}

// drawCase is one plan the draw is checked on, over seeds seeds.
type drawCase struct {
	name  string
	soc   config.SoC
	seeds int
}

// drawCases: dense mirrors memtest's densePlan (fully defective
// memories and a half-defective one with DRFs); the two FuzzParsePlan
// seed plans that parse are included verbatim; saturated can never
// place its second memory's DRFs, and full places DRFs on exactly the
// cells left free.
func drawCases(t *testing.T) []drawCase {
	t.Helper()
	parse := func(js []byte) config.SoC {
		var s config.SoC
		if err := json.Unmarshal(js, &s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	heteroJSON, err := config.HeterogeneousExample().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mem := func(name string, words, width int, rate float64, drfs int, seed int64) config.Memory {
		return config.Memory{Name: name, Words: words, Width: width, DefectRate: rate, DRFCount: drfs, Seed: seed}
	}
	soc := func(name string, ms ...config.Memory) config.SoC {
		return config.SoC{Name: name, ClockNs: 10, Memories: ms}
	}
	return []drawCase{
		{"hetero", config.HeterogeneousExample(), 500},
		{"benchmark16", config.Benchmark16(), 500},
		{"dense", soc("dense", mem("full0", 8, 4, 1, 0, 41), mem("full1", 5, 7, 1, 0, 42),
			mem("half", 16, 6, 0.5, 6, 43)), 500},
		{"fuzz_hetero", parse(heteroJSON), 50},
		{"fuzz_small", parse([]byte(`{"name":"x","clock_ns":10,"memories":[{"name":"m","words":4,"width":4}]}`)), 50},
		{"saturated", soc("saturated", mem("ok", 8, 8, 0.1, 2, 1), mem("sat", 4, 4, 0.5, 9, 2)), 50},
		{"full", soc("full", mem("full", 4, 4, 0.5, 8, 3)), 200},
	}
}

func TestBuilderDrawMatchesReference(t *testing.T) {
	for _, tc := range drawCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.soc.Validate(); err != nil {
				t.Fatal(err)
			}
			b, err := config.NewBuilder(tc.soc)
			if err != nil {
				t.Fatal(err)
			}
			n := len(tc.soc.Memories)
			mems := make([]*sram.Memory, n)
			for i, mc := range tc.soc.Memories {
				mems[i] = sram.New(mc.Words, mc.Width)
			}
			seeds := make([]int64, n)
			truth := make([][]fault.Fault, n)
			failures := 0
			for s := range tc.seeds {
				for i := range seeds {
					seeds[i] = int64(fault.Splitmix64(uint64(s*n + i)))
				}
				var want [][]fault.Fault
				var wantErr error
				for i, mc := range tc.soc.Memories {
					mems[i].Reset()
					w, err := refInject(mems[i], fault.NewGenerator(mc.Words, mc.Width, seeds[i]), mc)
					if err != nil {
						wantErr = err
						break
					}
					want = append(want, w)
				}

				drawErr := b.Draw(seeds, truth)
				built, builtTruth, buildErr := b.Build(seeds)
				if wantErr != nil {
					failures++
					for what, err := range map[string]error{"Draw": drawErr, "Build": buildErr} {
						if err == nil || err.Error() != wantErr.Error() {
							t.Fatalf("seed %d: %s err = %v, want %q", s, what, err, wantErr)
						}
					}
					continue
				}
				if drawErr != nil || buildErr != nil {
					t.Fatalf("seed %d: Draw err %v, Build err %v; reference succeeded", s, drawErr, buildErr)
				}
				for i := range want {
					if !slices.Equal(truth[i], want[i]) {
						t.Fatalf("seed %d memory %d: Draw gave\n%v\nreference\n%v", s, i, truth[i], want[i])
					}
					if !slices.Equal(builtTruth[i], want[i]) {
						t.Fatalf("seed %d memory %d: Build truth differs from the reference", s, i)
					}
					held := slices.Clone(built[i].Faults())
					fault.Sort(held)
					if !slices.Equal(held, want[i]) {
						t.Fatalf("seed %d memory %d: Build's memory holds\n%v\nreference\n%v", s, i, held, want[i])
					}
				}
			}
			wantFailures := 0
			if tc.name == "saturated" {
				wantFailures = tc.seeds
			}
			if failures != wantFailures {
				t.Fatalf("%d of %d seeds failed to place their DRFs, want %d", failures, tc.seeds, wantFailures)
			}
		})
	}
}
