package memtest

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// smallPlan keeps runtimes low: the baseline engine shifts bit by bit.
func smallPlan() Plan {
	return Plan{
		Name:    "test-fleet",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "a", Words: 32, Width: 8, DefectRate: 0.02, Seed: 5},
			{Name: "b", Words: 16, Width: 4, DefectRate: 0.03, DRFCount: 1, Seed: 6},
		},
	}
}

func TestDiagnoseProposedFindsTruth(t *testing.T) {
	res, err := Diagnose(context.Background(), smallPlan(), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "proposed" || res.Engine != "proposed" {
		t.Errorf("scheme %q engine %q", res.Scheme, res.Engine)
	}
	for _, md := range res.Memories {
		if md.TruthLocated != md.Detectable {
			t.Errorf("%s: located %d of %d detectable faults (located set %v)",
				md.Name, md.TruthLocated, md.Detectable, md.Located)
		}
		if md.FalsePositives != 0 {
			t.Errorf("%s: %d false positives", md.Name, md.FalsePositives)
		}
	}
	if res.Report.RetentionNs != 0 {
		t.Error("proposed scheme used retention pauses")
	}
}

func TestDiagnoseProposedWithoutDRFSkipsThem(t *testing.T) {
	res, err := Diagnose(context.Background(), smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	b := res.Memories[1]
	if b.Detectable >= b.Injected {
		t.Fatalf("DRF not excluded from detectable: %d >= %d", b.Detectable, b.Injected)
	}
	if b.TruthLocated != b.Detectable {
		t.Errorf("located %d of %d detectable", b.TruthLocated, b.Detectable)
	}
}

func TestDiagnoseBaselineSlower(t *testing.T) {
	prop, err := Diagnose(context.Background(), smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Diagnose(context.Background(), smallPlan(), WithScheme("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Scheme != "baseline-[7,8]" {
		t.Errorf("baseline scheme label %q", base.Scheme)
	}
	if base.TimeNs() <= prop.TimeNs() {
		t.Fatalf("baseline %v ns not slower than proposed %v ns", base.TimeNs(), prop.TimeNs())
	}
	if base.Report.Iterations == 0 {
		t.Error("faulty fleet needed zero baseline iterations")
	}
}

func TestCompare(t *testing.T) {
	cmp, err := Compare(context.Background(), smallPlan(), false)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MeasuredReduction <= 1 {
		t.Fatalf("measured reduction %v <= 1", cmp.MeasuredReduction)
	}
	if cmp.AnalyticReduction <= 1 {
		t.Fatalf("analytic reduction %v <= 1", cmp.AnalyticReduction)
	}
}

func TestCompareWithDRF(t *testing.T) {
	cmp, err := Compare(context.Background(), smallPlan(), true)
	if err != nil {
		t.Fatal(err)
	}
	noDRF, err := Compare(context.Background(), smallPlan(), false)
	if err != nil {
		t.Fatal(err)
	}
	// DRF inclusion must massively widen the gap: the baseline pays
	// 200 ms of pauses, the proposed scheme (2n+2c) cycles.
	if cmp.MeasuredReduction <= noDRF.MeasuredReduction {
		t.Fatalf("DRF reduction %v not larger than no-DRF %v",
			cmp.MeasuredReduction, noDRF.MeasuredReduction)
	}
	if cmp.Baseline.Report.RetentionNs != 2e8 {
		t.Fatalf("baseline retention %v, want 2e8", cmp.Baseline.Report.RetentionNs)
	}
	if cmp.Proposed.Report.RetentionNs != 0 {
		t.Fatal("proposed retention nonzero")
	}
}

func TestCompareCallerDRFKeepsReductionsConsistent(t *testing.T) {
	// A caller-supplied WithDRF() must make BOTH figures answer the
	// DRF question, not just the measured one.
	viaOpt, err := Compare(context.Background(), smallPlan(), false, WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	viaParam, err := Compare(context.Background(), smallPlan(), true)
	if err != nil {
		t.Fatal(err)
	}
	if viaOpt.AnalyticReduction != viaParam.AnalyticReduction {
		t.Fatalf("analytic reduction %v via option, %v via parameter",
			viaOpt.AnalyticReduction, viaParam.AnalyticReduction)
	}
	if viaOpt.Baseline.Report.RetentionNs != viaParam.Baseline.Report.RetentionNs {
		t.Fatalf("measured runs diverge: %v vs %v retention",
			viaOpt.Baseline.Report.RetentionNs, viaParam.Baseline.Report.RetentionNs)
	}
}

func TestCompareIgnoresCallerSchemeOverride(t *testing.T) {
	// A stray WithScheme in the shared options must not collapse the
	// comparison into one engine vs itself.
	cmp, err := Compare(context.Background(), smallPlan(), false, WithScheme("rawsim"))
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Proposed.Engine != "proposed" || cmp.Baseline.Engine != "baseline" {
		t.Fatalf("compared %q vs %q", cmp.Proposed.Engine, cmp.Baseline.Engine)
	}
}

func TestDiagnoseWithRepair(t *testing.T) {
	res, err := Diagnose(context.Background(), smallPlan(),
		WithDRF(), WithRepair(Budget{SpareWords: 2, SpareCells: 8}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield == nil {
		t.Fatal("no yield stats with a spare budget")
	}
	for _, md := range res.Memories {
		if md.Repair == nil {
			t.Fatalf("%s: no repair allocation", md.Name)
		}
	}
	if res.Yield.Memories != 2 {
		t.Fatalf("yield over %d memories", res.Yield.Memories)
	}
}

func TestDiagnoseLSBFirstHazard(t *testing.T) {
	// Heterogeneous widths + LSB-first delivery: the run completes but
	// diagnosis shows false positives (Fig. 4).
	res, err := Diagnose(context.Background(), smallPlan(), WithDeliveryOrder(LSBFirst))
	if err != nil {
		t.Fatal(err)
	}
	fp := 0
	for _, md := range res.Memories {
		fp += md.FalsePositives
	}
	if fp == 0 {
		t.Fatal("LSB-first delivery produced no false positives on a heterogeneous fleet")
	}
}

func TestDiagnoseSingleDirectional(t *testing.T) {
	res, err := Diagnose(context.Background(), smallPlan(), WithScheme("singledir"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "single-dir-[9,10]" {
		t.Errorf("scheme name %q", res.Scheme)
	}
}

func TestRawSimMatchesProposedLocatedSet(t *testing.T) {
	// The proposed scheme's SPC/PSC plumbing is transparent: its
	// located set equals ideal word-wide March execution when the fleet
	// is homogeneous (no wrap effects).
	plan := Plan{Name: "homog", ClockNs: 10, Memories: []MemorySpec{
		{Name: "m", Words: 32, Width: 8, DefectRate: 0.03, DRFCount: 1, Seed: 9},
	}}
	prop, err := Diagnose(context.Background(), plan, WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Diagnose(context.Background(), plan, WithScheme("rawsim"), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	a, b := prop.Memories[0].Located, raw.Memories[0].Located
	if len(a) != len(b) {
		t.Fatalf("located sets differ: proposed %v, rawsim %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("located sets differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRawSimCyclesCutBackgroundsToWidth(t *testing.T) {
	// The hetero plan's widest memory is 16 bits, which has 5 of
	// MarchCW(128)'s 8 backgrounds: the simulator runs MarchCW(16)'s
	// schedule, and the cycle count must charge that schedule.
	plan := HeterogeneousExample()
	cycles := func(test MarchTest) int64 {
		t.Helper()
		res, err := Diagnose(context.Background(), plan, WithScheme("rawsim"), WithMarchTest(test))
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Cycles
	}
	wide, exact := cycles(MarchCW(128)), cycles(MarchCW(16))
	if wide != exact || exact != 1920 {
		t.Fatalf("rawsim cycles: MarchCW(128) %d, MarchCW(16) %d, want both 1920", wide, exact)
	}
}

func TestUnknownSchemeSentinel(t *testing.T) {
	_, err := New(smallPlan(), WithScheme("quantum"))
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
}

func TestPlanValidationSentinels(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		want error
	}{
		{"no memories", Plan{Name: "x", ClockNs: 10}, ErrNoMemories},
		{"bad clock", Plan{Name: "x", Memories: []MemorySpec{{Name: "m", Words: 8, Width: 4}}}, ErrBadClock},
		{"bad geometry", Plan{Name: "x", ClockNs: 10,
			Memories: []MemorySpec{{Name: "m", Words: 0, Width: 4}}}, ErrBadGeometry},
		{"bad rate", Plan{Name: "x", ClockNs: 10,
			Memories: []MemorySpec{{Name: "m", Words: 8, Width: 4, DefectRate: 1.5}}}, ErrBadDefectRate},
		{"bad drf", Plan{Name: "x", ClockNs: 10,
			Memories: []MemorySpec{{Name: "m", Words: 8, Width: 4, DRFCount: -1}}}, ErrBadDRFCount},
		{"duplicate name", Plan{Name: "x", ClockNs: 10,
			Memories: []MemorySpec{{Name: "m", Words: 8, Width: 4}, {Name: "m", Words: 8, Width: 4}}},
			ErrDuplicateMemoryName},
	}
	for _, tc := range cases {
		if _, err := New(tc.plan); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	data, err := smallPlan().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "test-fleet" || len(back.Memories) != 2 || back.Memories[1].DRFCount != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestResultJSONSerializable(t *testing.T) {
	res, err := Diagnose(context.Background(), smallPlan(),
		WithDRF(), WithRepair(Budget{SpareCells: 4}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Engine   string `json:"engine"`
		Scheme   string `json:"scheme"`
		Plan     string `json:"plan"`
		Memories []struct {
			Name         string `json:"name"`
			TruthLocated int    `json:"truth_located"`
		} `json:"memories"`
		Yield *struct {
			Memories int
		} `json:"yield"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Engine != "proposed" || decoded.Plan != "test-fleet" ||
		len(decoded.Memories) != 2 || decoded.Yield == nil {
		t.Fatalf("JSON shape wrong: %s", data)
	}
	if decoded.Memories[0].Name != "a" || decoded.Memories[0].TruthLocated == 0 {
		t.Fatalf("per-memory JSON wrong: %s", data)
	}
}

func TestDefaultTest(t *testing.T) {
	plain := DefaultTest(8, false)
	if plain.HasNWRC() {
		t.Error("plain default test has NWRC ops")
	}
	drf := DefaultTest(8, true)
	if !drf.HasNWRC() {
		t.Error("DRF default test lacks NWRC ops")
	}
	if BackgroundsFor(100) != 8 {
		t.Errorf("BackgroundsFor(100) = %d, want 8", BackgroundsFor(100))
	}
}

func TestSchemesRegistry(t *testing.T) {
	names := Schemes()
	want := map[string]bool{"proposed": true, "baseline": true, "singledir": true, "rawsim": true}
	found := 0
	for _, n := range names {
		if want[n] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("registry %v missing built-ins", names)
	}
	if _, err := LookupEngine("proposed"); err != nil {
		t.Fatal(err)
	}
}
