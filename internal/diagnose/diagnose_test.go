package diagnose

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bisd"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
)

// runOne diagnoses a single-fault memory with the proposed scheme and
// classifies the outcome.
func runOne(t *testing.T, f fault.Fault, test march.Test, n, c int) []CellDiagnosis {
	t.Helper()
	m := sram.New(n, c)
	if err := m.Inject(f); err != nil {
		t.Fatal(err)
	}
	rep, err := bisd.RunProposed([]*sram.Memory{m}, test, bisd.ProposedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return Classify(test, c, rep.Memories[0])
}

func TestClassifyStuckAt(t *testing.T) {
	test := march.WithNWRTM(march.MarchCW(8))
	sa0 := runOne(t, fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 5, Bit: 3}}, test, 32, 8)
	if len(sa0) != 1 || sa0[0].Verdict != AlwaysZero {
		t.Fatalf("SA0 classified as %v", sa0)
	}
	sa1 := runOne(t, fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 5, Bit: 3}}, test, 32, 8)
	if len(sa1) != 1 || sa1[0].Verdict != AlwaysOne {
		t.Fatalf("SA1 classified as %v", sa1)
	}
}

func TestClassifyTransitionFaultsFoldIntoStuck(t *testing.T) {
	// Logically indistinguishable from stuck-at: documented behaviour.
	test := march.WithNWRTM(march.MarchCMinus())
	tf := runOne(t, fault.Fault{Class: fault.TFUp, Dir: fault.Up,
		Victim: fault.Cell{Addr: 2, Bit: 1}}, test, 16, 4)
	if len(tf) != 1 || tf[0].Verdict != AlwaysZero {
		t.Fatalf("TFUp classified as %v", tf)
	}
	if !tf[0].Verdict.Consistent(fault.TFUp) || !tf[0].Verdict.Consistent(fault.SA0) {
		t.Fatal("consistency relation wrong for AlwaysZero")
	}
}

func TestClassifyDRFBothPolarities(t *testing.T) {
	test := march.WithNWRTM(march.MarchCW(4))
	drf1 := runOne(t, fault.Fault{Class: fault.DRF, Value: true,
		Victim: fault.Cell{Addr: 7, Bit: 0}}, test, 16, 4)
	if len(drf1) != 1 || drf1[0].Verdict != RetentionOne {
		t.Fatalf("DRF<1> classified as %v", drf1)
	}
	drf0 := runOne(t, fault.Fault{Class: fault.DRF, Value: false,
		Victim: fault.Cell{Addr: 7, Bit: 0}}, test, 16, 4)
	if len(drf0) != 1 || drf0[0].Verdict != RetentionZero {
		t.Fatalf("DRF<0> classified as %v", drf0)
	}
}

func TestClassifyCouplingIntermittent(t *testing.T) {
	test := march.WithNWRTM(march.MarchCW(4))
	d := runOne(t, fault.Fault{Class: fault.CFid, Dir: fault.Up, Value: true,
		Aggressor: fault.Cell{Addr: 1, Bit: 0}, Victim: fault.Cell{Addr: 9, Bit: 2}}, test, 16, 4)
	if len(d) != 1 || d[0].Verdict != Intermittent {
		t.Fatalf("CFid classified as %v", d)
	}
}

func TestClassifyMixedPopulation(t *testing.T) {
	test := march.WithNWRTM(march.MarchCW(8))
	m := sram.New(32, 8)
	truth := map[fault.Cell]fault.Class{}
	add := func(f fault.Fault) {
		if err := m.Inject(f); err != nil {
			t.Fatal(err)
		}
		truth[f.Victim] = f.Class
	}
	add(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 1, Bit: 1}})
	add(fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 9, Bit: 7}})
	add(fault.Fault{Class: fault.DRF, Value: true, Victim: fault.Cell{Addr: 20, Bit: 4}})
	add(fault.Fault{Class: fault.CFin, Dir: fault.Down,
		Aggressor: fault.Cell{Addr: 3, Bit: 0}, Victim: fault.Cell{Addr: 27, Bit: 2}})
	rep, err := bisd.RunProposed([]*sram.Memory{m}, test, bisd.ProposedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ds := Classify(test, 8, rep.Memories[0])
	if len(ds) != len(truth) {
		t.Fatalf("classified %d cells, want %d: %v", len(ds), len(truth), ds)
	}
	for _, d := range ds {
		class, ok := truth[d.Cell]
		if !ok {
			t.Errorf("classified unknown cell %v", d.Cell)
			continue
		}
		if !d.Verdict.Consistent(class) {
			t.Errorf("cell %v (%s) classified %s", d.Cell, class, d.Verdict)
		}
	}
}

func TestVerdictStringsAndConsistency(t *testing.T) {
	for v, frag := range map[Verdict]string{
		Unknown: "unknown", AlwaysZero: "always-0", AlwaysOne: "always-1",
		RetentionOne: "DRF<1>", RetentionZero: "DRF<0>", Intermittent: "coupling",
	} {
		if !strings.Contains(v.String(), frag) {
			t.Errorf("verdict %d string %q missing %q", int(v), v.String(), frag)
		}
	}
	if Verdict(42).String() == "" {
		t.Error("unknown verdict string empty")
	}
	if AlwaysZero.Consistent(fault.SA1) {
		t.Error("AlwaysZero consistent with SA1")
	}
	if !RetentionOne.Consistent(fault.DRF) {
		t.Error("RetentionOne inconsistent with DRF")
	}
	if !Unknown.Consistent(fault.SOF) {
		t.Error("SOF should accept any verdict")
	}
}

func TestCellDiagnosisString(t *testing.T) {
	d := CellDiagnosis{Cell: fault.Cell{Addr: 3, Bit: 1}, Verdict: AlwaysZero, Fails: 7}
	s := d.String()
	if !strings.Contains(s, "3.1") || !strings.Contains(s, "always-0") || !strings.Contains(s, "7") {
		t.Errorf("diagnosis string = %q", s)
	}
}

func TestClassifyCutsBackgroundsToWidth(t *testing.T) {
	// MarchCW(128) names 8 backgrounds; a 16-bit controller has 5, so
	// the engine runs exactly MarchCW(16)'s schedule and the classifier
	// must read the records the same way.
	m := sram.New(32, 16)
	if err := m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 9, Bit: 13}}); err != nil {
		t.Fatal(err)
	}
	rep, err := bisd.RunProposed([]*sram.Memory{m}, march.MarchCW(128), bisd.ProposedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wide := Classify(march.MarchCW(128), 16, rep.Memories[0])
	exact := Classify(march.MarchCW(16), 16, rep.Memories[0])
	if !reflect.DeepEqual(wide, exact) {
		t.Fatalf("MarchCW(128) classified as %v, MarchCW(16) as %v", wide, exact)
	}
	if len(exact) != 1 || exact[0].Verdict != AlwaysZero {
		t.Fatalf("SA0 classified as %v", exact)
	}
}

func TestScheduleMatchesEngineIndices(t *testing.T) {
	// The schedule's (element, op) keys must line up with the engine's
	// failure records: every record of a run must resolve to a site.
	test := march.WithNWRTM(march.MarchCW(4))
	m := sram.New(16, 4)
	if err := m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 5, Bit: 2}}); err != nil {
		t.Fatal(err)
	}
	rep, err := bisd.RunProposed([]*sram.Memory{m}, test, bisd.ProposedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sites := schedule(test, 4)
	byKey := map[[2]int]bool{}
	for _, s := range sites {
		byKey[[2]int{s.elem, s.op}] = true
	}
	for _, rec := range rep.Memories[0].Failures {
		if !byKey[[2]int{rec.Element, rec.Op}] {
			t.Fatalf("record %+v has no schedule site", rec)
		}
	}
}
