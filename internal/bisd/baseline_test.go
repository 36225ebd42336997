package bisd

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
)

func mustRunBaseline(t *testing.T, mems []*sram.Memory, opt BaselineOptions) *Report {
	t.Helper()
	rep, err := RunBaseline(mems, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBaselineCleanFleet(t *testing.T) {
	rep := mustRunBaseline(t, []*sram.Memory{sram.New(16, 4)}, BaselineOptions{})
	if rep.TotalLocated() != 0 {
		t.Fatalf("clean memory located %d cells", rep.TotalLocated())
	}
	if rep.Iterations != 0 {
		t.Fatalf("clean memory needed %d iterations", rep.Iterations)
	}
	// Fixed elements still run: 9 units.
	if want := int64(9 * 16 * 4); rep.Cycles != want {
		t.Fatalf("cycles = %d, want %d", rep.Cycles, want)
	}
}

// TestBaselineTwoFaultsPerIteration is the defect-rate dependence at
// the heart of the paper's critique: f faults need ceil(f/2) M1
// iterations because the bi-directional interface identifies at most
// one fault per element per direction.
func TestBaselineTwoFaultsPerIteration(t *testing.T) {
	for _, nf := range []int{1, 2, 3, 5, 8} {
		m := sram.New(16, 4)
		gen := fault.NewGenerator(16, 4, int64(nf))
		fleet, err := gen.Population(&fault.Scratch{}, nil, float64(nf)/(16*4)+1e-9, [][]fault.Class{{fault.SA0}, {fault.SA1}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fleet {
			mustInject(t, m, f)
		}
		if len(fleet) != nf {
			t.Fatalf("setup: fleet size %d, want %d", len(fleet), nf)
		}
		rep := mustRunBaseline(t, []*sram.Memory{m}, BaselineOptions{})
		wantK := (nf + 1) / 2
		if rep.Iterations != wantK {
			t.Errorf("%d faults: k = %d, want %d", nf, rep.Iterations, wantK)
		}
		if got := len(rep.Memories[0].Located); got != nf {
			t.Errorf("%d faults: located %d", nf, got)
		}
	}
}

// TestBaselineCyclesMatchEquation1 checks the (17k+9)·n·c·t charge.
func TestBaselineCyclesMatchEquation1(t *testing.T) {
	n, c := 16, 4
	m := sram.New(n, c)
	mustInject(t, m, fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 3, Bit: 1}})
	mustInject(t, m, fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 9, Bit: 2}})
	mustInject(t, m, fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 14, Bit: 0}})
	rep := mustRunBaseline(t, []*sram.Memory{m}, BaselineOptions{})
	k := rep.Iterations
	if k != 2 {
		t.Fatalf("k = %d, want 2", k)
	}
	if want := int64((17*k + 9) * n * c); rep.Cycles != want {
		t.Fatalf("cycles = %d, want (17k+9)nc = %d", rep.Cycles, want)
	}
}

func TestBaselineLocatesAllStuckAndTransitionFaults(t *testing.T) {
	m := sram.New(16, 4)
	victims := []fault.Cell{{Addr: 0, Bit: 0}, {Addr: 5, Bit: 3}, {Addr: 10, Bit: 1}, {Addr: 15, Bit: 3}}
	mustInject(t, m, fault.Fault{Class: fault.SA0, Victim: victims[0]})
	mustInject(t, m, fault.Fault{Class: fault.TFUp, Dir: fault.Up, Victim: victims[1]})
	mustInject(t, m, fault.Fault{Class: fault.SA1, Victim: victims[2]})
	mustInject(t, m, fault.Fault{Class: fault.TFDown, Dir: fault.Down, Victim: victims[3]})
	rep := mustRunBaseline(t, []*sram.Memory{m}, BaselineOptions{})
	for _, v := range victims {
		if !rep.Memories[0].LocatedCell(v) {
			t.Errorf("victim %v not located; got %v", v, rep.Memories[0].Located)
		}
	}
}

func TestBaselineMissesDRFWithoutDelayPhase(t *testing.T) {
	m := sram.New(16, 4)
	mustInject(t, m, fault.Fault{Class: fault.DRF, Value: true, Victim: fault.Cell{Addr: 7, Bit: 2}})
	rep := mustRunBaseline(t, []*sram.Memory{m}, BaselineOptions{})
	if rep.TotalLocated() != 0 {
		t.Fatalf("baseline without DRF phase located %v", rep.Memories[0].Located)
	}
	if rep.RetentionNs != 0 {
		t.Fatal("baseline without DRF phase used retention pauses")
	}
}

func TestBaselineDRFPhaseFindsDRFs(t *testing.T) {
	m := sram.New(16, 4)
	v1 := fault.Cell{Addr: 7, Bit: 2}
	v2 := fault.Cell{Addr: 12, Bit: 0}
	mustInject(t, m, fault.Fault{Class: fault.DRF, Value: true, Victim: v1})
	mustInject(t, m, fault.Fault{Class: fault.DRF, Value: false, Victim: v2})
	rep := mustRunBaseline(t, []*sram.Memory{m}, BaselineOptions{WithDRF: true})
	if !rep.Memories[0].LocatedCell(v1) || !rep.Memories[0].LocatedCell(v2) {
		t.Fatalf("DRFs not located: %v", rep.Memories[0].Located)
	}
	// Eq. (4): two 100 ms pauses charged.
	if rep.RetentionNs != 2e8 {
		t.Fatalf("retention = %v ns, want 2e8", rep.RetentionNs)
	}
}

func TestBaselineDRFChargesEquation4Units(t *testing.T) {
	n, c := 16, 4
	base := mustRunBaseline(t, []*sram.Memory{cloneWithSA0(n, c)}, BaselineOptions{})
	with := mustRunBaseline(t, []*sram.Memory{cloneWithSA0(n, c)}, BaselineOptions{WithDRF: true})
	k := base.Iterations
	if want := base.Cycles + int64(8*k*n*c); with.Cycles != want {
		t.Fatalf("DRF cycles = %d, want %d (8k·n·c extra)", with.Cycles, want)
	}
}

func cloneWithSA0(n, c int) *sram.Memory {
	m := sram.New(n, c)
	_ = m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 3, Bit: 1}})
	return m
}

func TestBaselineParallelFleet(t *testing.T) {
	// Two memories diagnosed in parallel: iterations follow the worst
	// memory, and both fault sets are located.
	m1, m2 := sram.New(16, 4), sram.New(16, 4)
	v1 := []fault.Cell{{Addr: 1, Bit: 0}, {Addr: 8, Bit: 2}, {Addr: 15, Bit: 1}}
	for _, v := range v1 {
		mustInject(t, m1, fault.Fault{Class: fault.SA0, Victim: v})
	}
	v2 := fault.Cell{Addr: 4, Bit: 3}
	mustInject(t, m2, fault.Fault{Class: fault.SA1, Victim: v2})
	rep := mustRunBaseline(t, []*sram.Memory{m1, m2}, BaselineOptions{})
	if rep.Iterations != 2 { // worst memory: 3 faults -> 2 iterations
		t.Fatalf("k = %d, want 2", rep.Iterations)
	}
	for _, v := range v1 {
		if !rep.Memories[0].LocatedCell(v) {
			t.Errorf("m1 victim %v missing", v)
		}
	}
	if !rep.Memories[1].LocatedCell(v2) {
		t.Errorf("m2 victim missing")
	}
}

func TestBaselineRejectsEmptyFleet(t *testing.T) {
	if _, err := RunBaseline(nil, BaselineOptions{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

func TestSingleDirectionalMisdiagnoses(t *testing.T) {
	// Experiment E1: with two stuck cells, the single-directional
	// interface's claimed fault position is not a real defect — the
	// masking problem.
	m := sram.New(8, 2)
	real1 := fault.Cell{Addr: 1, Bit: 0}
	real2 := fault.Cell{Addr: 5, Bit: 1}
	mustInject(t, m, fault.Fault{Class: fault.SA0, Victim: real1})
	mustInject(t, m, fault.Fault{Class: fault.SA0, Victim: real2})
	rep, err := RunSingleDirectional([]*sram.Memory{m}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Memories[0].Located) == 0 {
		t.Fatal("single-dir saw nothing at all")
	}
	for _, c := range rep.Memories[0].Located {
		if c == real1 || c == real2 {
			t.Fatalf("single-dir correctly identified %v; masking demo broken", c)
		}
	}
}

func TestSingleDirectionalRejectsEmptyFleet(t *testing.T) {
	if _, err := RunSingleDirectional(nil, 10); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// TestBaselineVsProposedLocatedAgree: on a stuck-at/transition fleet
// both schemes find the same cells; the proposed scheme just does it
// without iterating.
func TestBaselineVsProposedLocatedAgree(t *testing.T) {
	mk := func() *sram.Memory {
		m := sram.New(16, 4)
		gen := fault.NewGenerator(16, 4, 1234)
		// No DRFs are placed, so Population cannot fail.
		fleet, _ := gen.Population(&fault.Scratch{}, nil, 0.08, [][]fault.Class{{fault.SA0, fault.SA1}, {fault.TFUp, fault.TFDown}}, 0)
		for _, f := range fleet {
			_ = m.Inject(f)
		}
		return m
	}
	base := mustRunBaseline(t, []*sram.Memory{mk()}, BaselineOptions{})
	prop := mustRunProposed(t, []*sram.Memory{mk()}, march.MarchCW(4), ProposedOptions{})
	b, p := base.Memories[0].Located, prop.Memories[0].Located
	if len(b) != len(p) {
		t.Fatalf("baseline located %v, proposed %v", b, p)
	}
	for i := range b {
		if b[i] != p[i] {
			t.Fatalf("located sets differ: %v vs %v", b, p)
		}
	}
	if base.Iterations < len(b)/2 {
		t.Errorf("baseline iterations %d suspiciously low for %d faults", base.Iterations, len(b))
	}
}
