package config

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/sram"
)

func TestBenchmark16Shape(t *testing.T) {
	s := Benchmark16()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	m := s.Memories[0]
	if m.Words != 512 || m.Width != 100 || s.ClockNs != 10 {
		t.Fatalf("benchmark parameters wrong: %+v", s)
	}
	// The paper's 1% defective cells map to 256 observable faults
	// under [8]'s model; the configuration draws those directly.
	if got := int(float64(m.Words*m.Width) * m.DefectRate); got != 256 {
		t.Fatalf("benchmark fault count = %d, want 256", got)
	}
}

func TestHeterogeneousExampleValid(t *testing.T) {
	if err := HeterogeneousExample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []struct {
		soc  SoC
		want error
	}{
		{SoC{Name: "no-mems", ClockNs: 10}, ErrNoMemories},
		{SoC{Name: "bad-clock", Memories: []Memory{{Name: "m", Words: 4, Width: 4}}}, ErrBadClock},
		{SoC{Name: "bad-geom", ClockNs: 10, Memories: []Memory{{Name: "m", Words: 0, Width: 4}}}, ErrBadGeometry},
		{SoC{Name: "bad-rate", ClockNs: 10, Memories: []Memory{{Name: "m", Words: 4, Width: 4, DefectRate: 2}}}, ErrBadDefectRate},
		{SoC{Name: "bad-drf", ClockNs: 10, Memories: []Memory{{Name: "m", Words: 4, Width: 4, DRFCount: -1}}}, ErrBadDRFCount},
		{SoC{Name: "dup-name", ClockNs: 10, Memories: []Memory{{Name: "m", Words: 4, Width: 4}, {Name: "m", Words: 8, Width: 2}}}, ErrDuplicateMemoryName},
	}
	for _, tc := range bad {
		if err := tc.soc.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate err = %v, want %v", tc.soc.Name, err, tc.want)
		}
		// The builder validates exactly what Validate does.
		if _, err := NewBuilder(tc.soc); !errors.Is(err, tc.want) {
			t.Errorf("%s: NewBuilder err = %v, want %v", tc.soc.Name, err, tc.want)
		}
	}
}

// build is a one-shot build of s on a fresh Builder.
func build(t *testing.T, s SoC) ([]*sram.Memory, [][]fault.Fault) {
	t.Helper()
	b, err := NewBuilder(s)
	if err != nil {
		t.Fatal(err)
	}
	mems, truth, err := b.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	return mems, truth
}

func TestBuildDeterministic(t *testing.T) {
	s := HeterogeneousExample()
	_, t1 := build(t, s)
	_, t2 := build(t, s)
	for i := range t1 {
		if len(t1[i]) != len(t2[i]) {
			t.Fatalf("memory %d: truth size differs", i)
		}
		for j := range t1[i] {
			if t1[i][j] != t2[i][j] {
				t.Fatalf("memory %d fault %d differs", i, j)
			}
		}
	}
}

func TestBuildInjectsRequestedDefects(t *testing.T) {
	s := SoC{Name: "t", ClockNs: 10, Memories: []Memory{
		{Name: "m", Words: 64, Width: 8, DefectRate: 0.05, DRFCount: 3, Seed: 7},
	}}
	mems, truth := build(t, s)
	if len(mems) != 1 {
		t.Fatal("wrong fleet size")
	}
	base := int(64 * 8 * 5 / 100)
	drfs := 0
	for _, f := range truth[0] {
		if f.Class == fault.DRF {
			drfs++
		}
	}
	if drfs == 0 || drfs > 3 {
		t.Fatalf("DRF count = %d, want 1..3", drfs)
	}
	if len(truth[0]) < base {
		t.Fatalf("truth %d < base %d", len(truth[0]), base)
	}
	if got := len(mems[0].Faults()); got != len(truth[0]) {
		t.Fatalf("memory holds %d faults, truth %d", got, len(truth[0]))
	}
}
