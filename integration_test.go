package repro_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bisd"
	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/repair"
	"repro/internal/scanout"
	"repro/internal/simulator"
	"repro/internal/sram"
	"repro/memtest"
)

// Integration tests: full flows across module boundaries.

// TestFullFlowJSONToRepair drives the complete pipeline a user would:
// parse a JSON fleet, diagnose with the proposed scheme, classify the
// scan-out off-line, and allocate repair.
func TestFullFlowJSONToRepair(t *testing.T) {
	raw := []byte(`{
		"name": "it-fleet", "clock_ns": 10,
		"memories": [
			{"name": "a", "words": 64, "width": 16, "defect_rate": 0.01, "seed": 21},
			{"name": "b", "words": 32, "width": 8, "defect_rate": 0.02, "drf_count": 1, "seed": 22}
		]
	}`)
	plan, err := memtest.ParsePlan(raw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := memtest.Diagnose(context.Background(), plan,
		memtest.WithDRF(),
		memtest.WithRepair(repair.Budget{SpareWords: 4, SpareCells: 16}))
	if err != nil {
		t.Fatal(err)
	}
	test := memtest.DefaultTest(16, true)
	for _, md := range res.Memories {
		if md.TruthLocated != md.Detectable || md.FalsePositives != 0 {
			t.Fatalf("%s: diagnosis imperfect: %+v", md.Name, md)
		}
		if md.Repair == nil || !md.Repair.Repaired() {
			t.Fatalf("%s: not repaired with a generous budget", md.Name)
		}
	}
	if res.Yield == nil || res.Yield.Yield() != 1 {
		t.Fatalf("yield = %+v", res.Yield)
	}

	// Scan out memory 0's records, decode, and classify off-line.
	rep := res.Report.Memories[0]
	stream, err := scanout.Encode(rep.Failures)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := scanout.Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(rep.Failures) {
		t.Fatalf("scan channel lost records: %d vs %d", len(recs), len(rep.Failures))
	}
	decoded := rep
	decoded.Failures = recs
	ds := diagnose.Classify(test, 16, decoded)
	if len(ds) != len(rep.Located) {
		t.Fatalf("classified %d cells, located %d", len(ds), len(rep.Located))
	}
	for _, d := range ds {
		if d.Verdict == diagnose.Unknown {
			t.Errorf("cell %v unclassified", d.Cell)
		}
	}
}

// TestQuickProposedMatchesReference is the central equivalence
// property: on random fault populations, the proposed scheme's located
// set equals ideal word-wide March execution — the SPC/PSC plumbing is
// transparent.
func TestQuickProposedMatchesReference(t *testing.T) {
	test := march.WithNWRTM(march.MarchCW(8))
	f := func(seed int64) bool {
		build := func() *sram.Memory {
			m := sram.New(32, 8)
			gen := fault.NewGenerator(32, 8, seed)
			// No DRFs are placed, so Population cannot fail.
			fl, _ := gen.Population(&fault.Scratch{}, nil, 0.03, fault.PaperDefectTypes(), 0)
			for _, ft := range fl {
				_ = m.Inject(ft)
			}
			return m
		}
		rep, err := bisd.RunProposed([]*sram.Memory{build()}, test, bisd.ProposedOptions{})
		if err != nil {
			return false
		}
		ref := simulator.Run(build(), test)
		got := rep.Memories[0].Located
		if len(got) != len(ref.Located) {
			return false
		}
		for i := range got {
			if got[i] != ref.Located[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickDiagnosisFeedsRepairConsistently: repair allocation over a
// scheme's diagnosis never loses or invents cells, for random fleets.
func TestQuickDiagnosisFeedsRepairConsistently(t *testing.T) {
	f := func(seed int64, wordsBudget, cellsBudget uint8) bool {
		plan := memtest.Plan{Name: "q", ClockNs: 10, Memories: []memtest.MemorySpec{
			{Name: "m", Words: 32, Width: 8, DefectRate: 0.02, Seed: seed},
		}}
		var opts []memtest.Option
		if b := (repair.Budget{SpareWords: int(wordsBudget % 4), SpareCells: int(cellsBudget % 8)}); b != (repair.Budget{}) {
			opts = append(opts, memtest.WithRepair(b))
		}
		res, err := memtest.Diagnose(context.Background(), plan, opts...)
		if err != nil {
			return false
		}
		md := res.Memories[0]
		if md.Repair == nil {
			return int(wordsBudget%4) == 0 && int(cellsBudget%8) == 0
		}
		covered := len(md.Repair.CellRepairs) + len(md.Repair.Unrepaired)
		for _, cs := range md.Repair.WordRepairs {
			covered += len(cs)
		}
		return covered == len(md.Located)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSchemesCoverageOrdering: across a mixed fleet, the proposed
// scheme with NWRTM locates a superset of what the baseline locates
// (it sees DRFs and whole words), and the single-directional interface
// is not trustworthy at all.
func TestSchemesCoverageOrdering(t *testing.T) {
	plan := memtest.Plan{Name: "ord", ClockNs: 10, Memories: []memtest.MemorySpec{
		{Name: "m0", Words: 32, Width: 8, DefectRate: 0.02, DRFCount: 2, Seed: 31},
	}}
	prop, err := memtest.Diagnose(context.Background(), plan, memtest.WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	base, err := memtest.Diagnose(context.Background(), plan, memtest.WithScheme("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if prop.Memories[0].TruthLocated <= base.Memories[0].TruthLocated {
		t.Fatalf("proposed located %d, baseline %d; expected strict superset with DRFs",
			prop.Memories[0].TruthLocated, base.Memories[0].TruthLocated)
	}
}

// TestAnalyticAndBitLevelBaselineAgreeOnK: for a stuck-at-only fleet
// the two baseline modes measure compatible iteration counts.
func TestAnalyticAndBitLevelBaselineAgreeOnK(t *testing.T) {
	build := func() *sram.Memory {
		m := sram.New(16, 4)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 6; i++ {
			_ = m.Inject(fault.Fault{Class: fault.SA0,
				Victim: fault.Cell{Addr: rng.Intn(16), Bit: rng.Intn(4)}})
		}
		return m
	}
	bit, err := bisd.RunBaseline([]*sram.Memory{build()}, bisd.BaselineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := bisd.RunBaseline([]*sram.Memory{build()}, bisd.BaselineOptions{Analytic: true})
	if err != nil {
		t.Fatal(err)
	}
	if bit.Iterations != ana.Iterations {
		t.Fatalf("bit-level k=%d, analytic k=%d", bit.Iterations, ana.Iterations)
	}
	if bit.TotalLocated() != ana.TotalLocated() {
		t.Fatalf("located sets differ: %d vs %d", bit.TotalLocated(), ana.TotalLocated())
	}
}

// TestLargeFleetAutoAnalytic: a paper-scale memory must route to the
// analytic baseline instead of hanging in O((nc)^2) simulation.
func TestLargeFleetAutoAnalytic(t *testing.T) {
	res, err := memtest.Diagnose(context.Background(), memtest.Benchmark16(), memtest.WithScheme("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Iterations == 0 {
		t.Fatal("benchmark fleet needed zero iterations")
	}
	// (17k+9)·n·c cycles exactly.
	want := int64(17*res.Report.Iterations+9) * 512 * 100
	if res.Report.Cycles != want {
		t.Fatalf("cycles = %d, want %d", res.Report.Cycles, want)
	}
}
