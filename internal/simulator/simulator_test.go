package simulator

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
)

func TestFaultFreeRunIsClean(t *testing.T) {
	m := sram.New(32, 8)
	res := Run(m, march.MarchCMinus())
	if res.Detected() {
		t.Fatalf("fault-free memory failed: %v", res.Failures)
	}
	if res.Ops != 10*32 {
		t.Fatalf("ops = %d, want %d", res.Ops, 10*32)
	}
}

func TestFaultFreeMarchCWClean(t *testing.T) {
	m := sram.New(16, 8)
	res := Run(m, march.MarchCW(8))
	if res.Detected() {
		t.Fatalf("fault-free March CW failed: %v", res.Failures[0])
	}
}

func TestFaultFreeNWRTMClean(t *testing.T) {
	m := sram.New(16, 8)
	res := Run(m, march.WithNWRTM(march.MarchCW(8)))
	if res.Detected() {
		t.Fatalf("fault-free NWRTM March failed: %v", res.Failures[0])
	}
}

func TestSA0DetectedAndLocated(t *testing.T) {
	m := sram.New(16, 4)
	f := fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 5, Bit: 2}}
	if err := m.Inject(f); err != nil {
		t.Fatal(err)
	}
	res := Run(m, march.MarchCMinus())
	if !res.Detected() {
		t.Fatal("SA0 not detected")
	}
	if !res.LocatedCell(f.Victim) {
		t.Fatalf("SA0 not located; located=%v", res.Located)
	}
	// No spurious locations under the single-fault assumption.
	if len(res.Located) != 1 {
		t.Fatalf("located %d cells, want 1: %v", len(res.Located), res.Located)
	}
}

func TestMarchCMinusClassCoverage(t *testing.T) {
	// March C- must detect 100% of SAF and TF.
	for _, class := range []fault.Class{fault.SA0, fault.SA1, fault.TFUp, fault.TFDown} {
		if !ClassCovered(16, 4, march.MarchCMinus(), class, 60, 11) {
			t.Errorf("March C- missed some %s", class)
		}
	}
}

func TestMATSPlusDetectsSAFAndAF(t *testing.T) {
	for _, class := range []fault.Class{fault.SA0, fault.SA1, fault.ADOF} {
		if !ClassCovered(16, 4, march.MATSPlus(), class, 60, 13) {
			t.Errorf("MATS+ missed some %s", class)
		}
	}
}

func TestMarchCMinusDetectsAF(t *testing.T) {
	if !ClassCovered(16, 4, march.MarchCMinus(), fault.ADOF, 80, 17) {
		t.Error("March C- missed address-decoder faults")
	}
}

func TestInterWordCouplingFullCoverage(t *testing.T) {
	// Inter-word CFid/CFin of all polarities must be caught by March C-.
	n, c := 16, 4
	for _, dir := range []fault.Dir{fault.Up, fault.Down} {
		for _, val := range []bool{false, true} {
			for agg := 0; agg < 4; agg++ {
				m := sram.New(n, c)
				f := fault.Fault{Class: fault.CFid, Dir: dir, Value: val,
					Aggressor: fault.Cell{Addr: agg, Bit: 1},
					Victim:    fault.Cell{Addr: 10, Bit: 2}}
				if err := m.Inject(f); err != nil {
					t.Fatal(err)
				}
				if res := Run(m, march.MarchCMinus()); !res.Detected() {
					t.Errorf("CFid<%s;%v> agg addr %d escaped March C-", dir, val, agg)
				}
			}
		}
	}
}

func TestIntraWordCFidEscapesMarchCMinus(t *testing.T) {
	// CFid<up;1> with aggressor and victim in the same word escapes
	// March C-: the victim is always written to the forced value in
	// the same cycle the aggressor fires. This is the coverage gap
	// March CW's extra backgrounds close.
	m := sram.New(16, 4)
	f := fault.Fault{Class: fault.CFid, Dir: fault.Up, Value: true,
		Aggressor: fault.Cell{Addr: 5, Bit: 0}, Victim: fault.Cell{Addr: 5, Bit: 1}}
	if err := m.Inject(f); err != nil {
		t.Fatal(err)
	}
	if res := Run(m, march.MarchCMinus()); res.Detected() {
		t.Fatal("intra-word CFid<up;1> unexpectedly detected by March C-")
	}
}

func TestIntraWordCFidCaughtByMarchCW(t *testing.T) {
	// The same fault is detected by March CW: bit 0 and bit 1 of the
	// index differ in background 1, so the w~D transition fires the
	// aggressor while the victim is written to the non-forced value.
	m := sram.New(16, 4)
	f := fault.Fault{Class: fault.CFid, Dir: fault.Up, Value: true,
		Aggressor: fault.Cell{Addr: 5, Bit: 0}, Victim: fault.Cell{Addr: 5, Bit: 1}}
	if err := m.Inject(f); err != nil {
		t.Fatal(err)
	}
	res := Run(m, march.MarchCW(4))
	if !res.Detected() {
		t.Fatal("intra-word CFid<up;1> escaped March CW")
	}
	if !res.LocatedCell(f.Victim) {
		t.Fatalf("located %v, want victim %v", res.Located, f.Victim)
	}
}

func TestDRFEscapesMarchWithoutNWRTM(t *testing.T) {
	m := sram.New(16, 4)
	f := fault.Fault{Class: fault.DRF, Value: true, Victim: fault.Cell{Addr: 3, Bit: 1}}
	if err := m.Inject(f); err != nil {
		t.Fatal(err)
	}
	if res := Run(m, march.MarchCW(4)); res.Detected() {
		t.Fatal("DRF detected without NWRTM or pause; normal writes should succeed")
	}
}

func TestDRFCaughtByNWRTM(t *testing.T) {
	for _, val := range []bool{false, true} {
		m := sram.New(16, 4)
		f := fault.Fault{Class: fault.DRF, Value: val, Victim: fault.Cell{Addr: 3, Bit: 1}}
		if err := m.Inject(f); err != nil {
			t.Fatal(err)
		}
		res := Run(m, march.WithNWRTM(march.MarchCMinus()))
		if !res.Detected() {
			t.Fatalf("DRF<%v> escaped NWRTM March", val)
		}
		if !res.LocatedCell(f.Victim) {
			t.Fatalf("DRF<%v> not located; %v", val, res.Located)
		}
		if res.RetentionMs != 0 {
			t.Fatalf("NWRTM run spent %v ms in retention pauses, want 0", res.RetentionMs)
		}
	}
}

func TestDRFCaughtByDelayTest(t *testing.T) {
	for _, val := range []bool{false, true} {
		m := sram.New(16, 4)
		f := fault.Fault{Class: fault.DRF, Value: val, Victim: fault.Cell{Addr: 3, Bit: 1}}
		if err := m.Inject(f); err != nil {
			t.Fatal(err)
		}
		res := Run(m, march.DelayRetentionTest(100))
		if !res.Detected() {
			t.Fatalf("DRF<%v> escaped the 100 ms delay test", val)
		}
		if res.RetentionMs != 200 {
			t.Fatalf("delay test pauses = %v ms, want 200", res.RetentionMs)
		}
	}
}

func TestDelayTestTooShortMisses(t *testing.T) {
	m := sram.New(16, 4)
	f := fault.Fault{Class: fault.DRF, Value: true, Victim: fault.Cell{Addr: 3, Bit: 1}}
	if err := m.Inject(f); err != nil {
		t.Fatal(err)
	}
	if res := Run(m, march.DelayRetentionTest(5)); res.Detected() {
		t.Fatal("5 ms pause detected a 62.5 ms-threshold DRF")
	}
}

func TestNWRTMCoverageSupersetOfMarchCW(t *testing.T) {
	// The NWRTM-merged test must not lose any of March CW's coverage
	// over the paper's defect classes, and must add DRFs.
	classes := append([]fault.Class{}, fault.PaperDefectClasses()...)
	classes = append(classes, fault.ADOF, fault.DRF)
	base := Coverage(16, 4, march.MarchCW(4), classes, 40, 23)
	merged := Coverage(16, 4, march.WithNWRTM(march.MarchCW(4)), classes, 40, 23)
	for i, row := range base {
		if merged[i].Detected < row.Detected {
			t.Errorf("%s: NWRTM merge lost coverage: %d -> %d",
				row.Class, row.Detected, merged[i].Detected)
		}
	}
	last := merged[len(merged)-1]
	if last.Class != fault.DRF || last.Detected != last.Samples {
		t.Errorf("DRF coverage after merge = %d/%d, want full", last.Detected, last.Samples)
	}
}

func TestSOFMostlyEscapesBothSchemes(t *testing.T) {
	// Documented limitation (see fault.PaperDefectClasses): stuck-open
	// cells repeat the column's previous sense value. Under solid-
	// along-address data they match the expected value everywhere
	// except at element boundaries where the expected data flips, so
	// only victims at the first addresses an element visits are caught.
	m := sram.New(16, 4)
	if err := m.Inject(fault.Fault{Class: fault.SOF, Victim: fault.Cell{Addr: 8, Bit: 1}}); err != nil {
		t.Fatal(err)
	}
	if Run(m, march.MarchCW(4)).Detected() {
		t.Error("mid-array SOF detected; expected escape")
	}
	m0 := sram.New(16, 4)
	if err := m0.Inject(fault.Fault{Class: fault.SOF, Victim: fault.Cell{Addr: 0, Bit: 1}}); err != nil {
		t.Fatal(err)
	}
	if !Run(m0, march.MarchCMinus()).Detected() {
		t.Error("SOF at address 0 escaped; element-boundary stale read should catch it")
	}
	rows := Coverage(16, 4, march.MarchCW(4), []fault.Class{fault.SOF}, 30, 31)
	if rate := rows[0].DetectionRate(); rate > 0.5 {
		t.Errorf("SOF detection rate = %v; expected mostly escapes", rate)
	}
}

func TestCoverageRowFormatting(t *testing.T) {
	row := CoverageRow{Class: fault.SA0, Samples: 10, Detected: 10, Located: 9}
	if row.DetectionRate() != 1.0 || row.LocationRate() != 0.9 {
		t.Error("rates wrong")
	}
	if row.String() == "" {
		t.Error("empty row string")
	}
	empty := CoverageRow{Class: fault.SA0}
	if empty.DetectionRate() != 0 || empty.LocationRate() != 0 {
		t.Error("zero-sample rates should be 0")
	}
}

func TestLocationMatchesInjection(t *testing.T) {
	// For the paper's defect classes, detection implies exact location
	// (the proposed scheme registers failing address + bit).
	rows := Coverage(16, 4, march.MarchCW(4), fault.PaperDefectClasses(), 50, 37)
	for _, row := range rows {
		if row.Located != row.Detected {
			t.Errorf("%s: located %d != detected %d", row.Class, row.Located, row.Detected)
		}
	}
}

func TestRunValidatesTest(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted an invalid test")
		}
	}()
	Run(sram.New(4, 4), march.Test{Name: "bad"})
}

func TestDownOrderActuallyDescends(t *testing.T) {
	// March C- needs both directions: every scheduled element must
	// visit the addresses in its element's order, ⇕ ascending.
	test := march.MarchCMinus()
	r := NewRunner(4, 2, test)
	if len(r.schedule) != len(test.Elements) {
		t.Fatalf("%d scheduled elements, want %d", len(r.schedule), len(test.Elements))
	}
	for i, se := range r.schedule {
		want := []int{0, 1, 2, 3}
		if test.Elements[i].Order == march.Down {
			want = []int{3, 2, 1, 0}
		}
		if !slices.Equal(se.addrs, want) {
			t.Fatalf("element %d (%s) visits %v, want %v", i, test.Elements[i], se.addrs, want)
		}
	}
}

func TestFailureString(t *testing.T) {
	m := sram.New(8, 2)
	if err := m.Inject(fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 1, Bit: 0}}); err != nil {
		t.Fatal(err)
	}
	res := Run(m, march.MarchCMinus())
	if !res.Detected() {
		t.Fatal("SA1 undetected")
	}
	if s := res.Failures[0].String(); s == "" {
		t.Error("empty failure string")
	}
}

func TestMultipleFaultsAllLocated(t *testing.T) {
	m := sram.New(32, 8)
	victims := []fault.Cell{{Addr: 1, Bit: 0}, {Addr: 7, Bit: 3}, {Addr: 30, Bit: 7}}
	classes := []fault.Class{fault.SA0, fault.SA1, fault.TFUp}
	for i, v := range victims {
		if err := m.Inject(fault.Fault{Class: classes[i], Victim: v}); err != nil {
			t.Fatal(err)
		}
	}
	res := Run(m, march.MarchCMinus())
	for _, v := range victims {
		if !res.LocatedCell(v) {
			t.Errorf("victim %v not located", v)
		}
	}
	if len(res.Located) != len(victims) {
		t.Errorf("located %d cells, want %d", len(res.Located), len(victims))
	}
}
