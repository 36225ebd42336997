package march

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
)

func TestOrderString(t *testing.T) {
	if Up.String() != "⇑" || Down.String() != "⇓" || Any.String() != "⇕" {
		t.Error("order arrows wrong")
	}
}

func TestOpString(t *testing.T) {
	cases := map[string]Op{
		"r0": R(false), "r1": R(true),
		"w0": W(false), "w1": W(true),
		"n0": N(false), "n1": N(true),
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("op = %q, want %q", got, want)
		}
	}
}

func TestElementString(t *testing.T) {
	e := Element{Order: Up, Ops: []Op{R(false), W(true)}}
	if got := e.String(); got != "⇑(r0,w1)" {
		t.Errorf("element = %q", got)
	}
}

func TestElementCounts(t *testing.T) {
	e := Element{Order: Up, Ops: []Op{R(false), W(true), N(false)}}
	if e.Reads() != 1 || e.Writes() != 2 {
		t.Errorf("reads=%d writes=%d, want 1, 2", e.Reads(), e.Writes())
	}
}

func TestMarchCMinusShape(t *testing.T) {
	mc := MarchCMinus()
	if err := mc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(mc.Elements) != 6 {
		t.Fatalf("March C- has %d elements, want 6", len(mc.Elements))
	}
	cx := mc.ComplexityFor(100)
	if cx.Ops() != 1000 { // 10n
		t.Errorf("March C- ops for n=100 = %d, want 1000", cx.Ops())
	}
	if cx.Reads != 500 || cx.Writes != 500 {
		t.Errorf("March C- reads/writes = %d/%d, want 500/500", cx.Reads, cx.Writes)
	}
	if cx.Elements != 6 {
		t.Errorf("March C- element executions = %d, want 6", cx.Elements)
	}
	want := "March C-: {⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}"
	if got := mc.String(); got != want {
		t.Errorf("March C- string:\n got %s\nwant %s", got, want)
	}
}

func TestMATSPlusShape(t *testing.T) {
	mp := MATSPlus()
	if err := mp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := mp.ComplexityFor(10).Ops(); got != 50 { // 5n
		t.Errorf("MATS+ ops = %d, want 50", got)
	}
}

// TestMarchCWMatchesEquation2 checks that March CW's operation counts
// reproduce the accounting behind the paper's Eq. (2): the March C-
// body contributes 5n reads + 5n writes in 5... (6 element deliveries);
// each additional background contributes 3n writes + 2n reads in 3
// deliveries, repeated ceil(log2 c) times.
func TestMarchCWMatchesEquation2(t *testing.T) {
	n, c := 512, 100
	cw := MarchCW(c)
	if err := cw.Validate(); err != nil {
		t.Fatal(err)
	}
	logc := bitvec.CeilLog2(c)
	cx := cw.ComplexityFor(n)
	wantReads := 5*n + 2*n*logc
	wantWrites := 5*n + 3*n*logc
	if cx.Reads != wantReads {
		t.Errorf("reads = %d, want %d", cx.Reads, wantReads)
	}
	if cx.Writes != wantWrites {
		t.Errorf("writes = %d, want %d", cx.Writes, wantWrites)
	}
	wantElems := 6 + 3*logc
	if cx.Elements != wantElems {
		t.Errorf("element executions = %d, want %d", cx.Elements, wantElems)
	}
	if cw.BackgroundCount != bitvec.NumBackgrounds(c) {
		t.Errorf("backgrounds = %d, want %d", cw.BackgroundCount, bitvec.NumBackgrounds(c))
	}
}

func TestWithNWRTMAddsExactlyTwoNWRCUnits(t *testing.T) {
	// Eq. (4) charges the proposed scheme (2n+2c)t extra for DRF
	// diagnosis: 2n NWRC write operations and 2 element deliveries.
	n := 512
	base := MarchCMinus()
	merged := WithNWRTM(base)
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	bc, mc := base.ComplexityFor(n), merged.ComplexityFor(n)
	if mc.Writes-bc.Writes != 2*n {
		t.Errorf("extra writes = %d, want %d", mc.Writes-bc.Writes, 2*n)
	}
	if mc.Reads != bc.Reads {
		t.Errorf("reads changed: %d vs %d", mc.Reads, bc.Reads)
	}
	if mc.Elements-bc.Elements != 2 {
		t.Errorf("extra deliveries = %d, want 2", mc.Elements-bc.Elements)
	}
	if !merged.HasNWRC() {
		t.Error("merged test does not report NWRC")
	}
	if base.HasNWRC() {
		t.Error("base March C- reports NWRC")
	}
}

func TestWithNWRTMOnMarchCW(t *testing.T) {
	n, c := 512, 100
	cw := MarchCW(c)
	merged := WithNWRTM(cw)
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	cx, base := merged.ComplexityFor(n), cw.ComplexityFor(n)
	if cx.Writes-base.Writes != 2*n {
		t.Errorf("extra writes = %d, want %d", cx.Writes-base.Writes, 2*n)
	}
	if cx.Elements-base.Elements != 2 {
		t.Errorf("extra deliveries = %d, want 2", cx.Elements-base.Elements)
	}
	if merged.BackgroundCount != cw.BackgroundCount {
		t.Error("background count changed by NWRTM merge")
	}
}

func TestDiagRSMarchUnits(t *testing.T) {
	m1, fixed := DiagRSMarchUnits()
	if m1 != 17 || fixed != 9 {
		t.Errorf("units = (%d,%d), want (17,9) per Eq. (1)", m1, fixed)
	}
	if M1CoverageFraction != 0.75 {
		t.Errorf("M1 coverage fraction = %v, want 0.75", M1CoverageFraction)
	}
	if M1FaultsPerIteration != 2 {
		t.Errorf("faults per iteration = %d, want 2", M1FaultsPerIteration)
	}
}

func TestParseRoundTrip(t *testing.T) {
	src := "⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)"
	got, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := MarchCMinus()
	if len(got.Elements) != len(want.Elements) {
		t.Fatalf("parsed %d elements, want %d", len(got.Elements), len(want.Elements))
	}
	for i := range got.Elements {
		if got.Elements[i].String() != want.Elements[i].String() {
			t.Errorf("element %d = %s, want %s", i, got.Elements[i], want.Elements[i])
		}
	}
}

func TestParseASCII(t *testing.T) {
	got := MustParse("a(w0); u(rD,w~D); d(r1,n0)")
	if got.Elements[0].Order != Any || got.Elements[1].Order != Up || got.Elements[2].Order != Down {
		t.Fatal("ASCII orders wrong")
	}
	if got.Elements[1].Ops[0] != R(false) || got.Elements[1].Ops[1] != W(true) {
		t.Fatal("D/~D operands wrong")
	}
	if got.Elements[2].Ops[1] != N(false) {
		t.Fatal("NWRC op wrong")
	}
}

func TestParseBraces(t *testing.T) {
	got := MustParse("{ a(w0); u(r0) }")
	if len(got.Elements) != 2 {
		t.Fatalf("parsed %d elements, want 2", len(got.Elements))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",            // no elements
		"u r0",        // missing parens
		"x(r0)",       // bad order
		"u(q0)",       // bad op kind
		"u(r2)",       // bad operand
		"u(r0,,w1)",   // empty op
		"u()",         // empty element
		"u(r0); d(r)", // short op
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("garbage")
}

func TestValidateCatchesBadTests(t *testing.T) {
	bad := []Test{
		{Name: "empty", BackgroundCount: 1},
		{Name: "empty element", Elements: []Element{{Order: Any}}, BackgroundCount: 1},
		{Name: "bad per-bg", Elements: []Element{{Order: Any, Ops: []Op{R(false)}}},
			BackgroundCount: 2, PerBackground: []bool{true, false}},
		{Name: "bad bg count", Elements: []Element{{Order: Any, Ops: []Op{R(false)}}}, BackgroundCount: 0},
	}
	for _, tt := range bad {
		if err := tt.Validate(); err == nil {
			t.Errorf("%s: Validate passed, want error", tt.Name)
		}
	}
}

func TestTestStringContainsName(t *testing.T) {
	if s := MarchCW(8).String(); !strings.HasPrefix(s, "March CW:") {
		t.Errorf("String = %q", s)
	}
}

func TestRSMarchIsRenamedCMinus(t *testing.T) {
	rs := RSMarch()
	if rs.Name != "RSMarch" {
		t.Errorf("name = %q", rs.Name)
	}
	if rs.ComplexityFor(7).Ops() != 70 {
		t.Error("RSMarch complexity differs from 10n")
	}
}

func TestOrderAddresses(t *testing.T) {
	cases := []struct {
		o    Order
		n    int
		want []int
	}{
		{Down, 4, []int{3, 2, 1, 0}},
		{Up, 3, []int{0, 1, 2}},
		{Any, 2, []int{0, 1}},
		{Down, 0, []int{}},
	}
	for _, tc := range cases {
		if got := tc.o.Addresses(tc.n); !slices.Equal(got, tc.want) {
			t.Errorf("%s.Addresses(%d) = %v, want %v", tc.o, tc.n, got, tc.want)
		}
	}
}

func TestAppendSchedule(t *testing.T) {
	w := Element{Order: Any, Ops: []Op{W(false)}}
	// Two per-background groups split by a run-once element: each
	// group repeats as a whole per non-solid background, in place.
	test := Test{
		Name:            "groups",
		Elements:        []Element{w, w, w, w},
		BackgroundCount: 3,
		PerBackground:   []bool{true, false, true, true},
	}
	want := []Step{{0, 1}, {0, 2}, {1, 0}, {2, 1}, {3, 1}, {2, 2}, {3, 2}}
	if got := test.AppendSchedule(nil, 8); !slices.Equal(got, want) {
		t.Fatalf("schedule = %v, want %v", got, want)
	}
	// A 2-bit word has 2 backgrounds, which cuts the repeats to one.
	want = []Step{{0, 1}, {1, 0}, {2, 1}, {3, 1}}
	if got := test.AppendSchedule(nil, 2); !slices.Equal(got, want) {
		t.Fatalf("2-bit schedule = %v, want %v", got, want)
	}
	// Appending keeps dst's prefix.
	dst := test.AppendSchedule([]Step{{9, 9}}, 2)
	if !slices.Equal(dst[1:], want) || dst[0] != (Step{9, 9}) {
		t.Fatalf("append onto a prefix = %v", dst)
	}
	// The schedule grows its slice once.
	cw := WithNWRTM(MarchCW(16))
	if n := testing.AllocsPerRun(10, func() { cw.AppendSchedule(nil, 16) }); n != 1 {
		t.Fatalf("AppendSchedule allocated %v times, want 1", n)
	}
	// Without per-background flags every element runs once on the
	// solid background.
	mc := MarchCMinus()
	for i, st := range mc.AppendSchedule(nil, 64) {
		if st != (Step{Element: i}) {
			t.Fatalf("March C- step %d = %v", i, st)
		}
	}
}

func TestAppendScheduleCutsBackgroundsToWidth(t *testing.T) {
	// MarchCW(128) names 8 backgrounds; a 16-bit controller has 5, so
	// it runs exactly MarchCW(16)'s schedule.
	wide, exact := MarchCW(128).AppendSchedule(nil, 16), MarchCW(16).AppendSchedule(nil, 16)
	if !slices.Equal(wide, exact) {
		t.Fatalf("MarchCW(128) at 16 bits = %v, MarchCW(16) = %v", wide, exact)
	}
	// At its own width the schedule is the one ComplexityFor counts.
	cw := WithNWRTM(MarchCW(100))
	if got, want := len(cw.AppendSchedule(nil, 100)), cw.ComplexityFor(1).Elements; got != want {
		t.Fatalf("%d scheduled steps, ComplexityFor counts %d", got, want)
	}
}
