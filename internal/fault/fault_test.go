package fault

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestClassString(t *testing.T) {
	cases := map[Class]string{
		SA0: "SA0", SA1: "SA1", TFUp: "TF<up>", TFDown: "TF<down>",
		CFin: "CFin", CFid: "CFid", CFst: "CFst", SOF: "SOF",
		ADOF: "AF", DRF: "DRF",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if got := Class(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown class string = %q", got)
	}
}

func TestClassesStableOrder(t *testing.T) {
	a, b := Classes(), Classes()
	if len(a) != 11 {
		t.Fatalf("Classes() returned %d entries, want 11", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Classes() order not stable")
		}
	}
}

func TestDirString(t *testing.T) {
	if Up.String() != "up" || Down.String() != "down" {
		t.Errorf("Dir strings wrong: %q %q", Up, Down)
	}
}

func TestAFKindString(t *testing.T) {
	for _, k := range []AFKind{AFNoCell, AFNoAddress, AFMultiCell, AFMultiAddress} {
		if s := k.String(); !strings.HasPrefix(s, "AF-") {
			t.Errorf("AFKind %d string = %q", int(k), s)
		}
	}
}

func TestCellLessAndString(t *testing.T) {
	a := Cell{Addr: 1, Bit: 2}
	b := Cell{Addr: 1, Bit: 3}
	c := Cell{Addr: 2, Bit: 0}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("Cell.Less ordering wrong")
	}
	if a.String() != "1.2" {
		t.Errorf("Cell.String = %q", a.String())
	}
}

func TestFaultString(t *testing.T) {
	f := Fault{Class: CFid, Dir: Up, Value: true,
		Aggressor: Cell{0, 1}, Victim: Cell{2, 3}}
	s := f.String()
	for _, frag := range []string{"CFid", "up", "0.1", "2.3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("CFid string %q missing %q", s, frag)
		}
	}
	d := Fault{Class: DRF, Value: true, Victim: Cell{5, 6}}
	if !strings.Contains(d.String(), "DRF<1>") {
		t.Errorf("DRF string = %q", d.String())
	}
	af := Fault{Class: ADOF, AF: AFMultiCell, Victim: Cell{Addr: 7}, Partner: 9}
	if !strings.Contains(af.String(), "partner=9") {
		t.Errorf("ADOF string = %q", af.String())
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := population(t, NewGenerator(64, 8, 42), 0.05)
	b := population(t, NewGenerator(64, 8, 42), 0.05)
	if len(a) != len(b) {
		t.Fatalf("fleet sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fleet %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFleetSizeMatchesDefectRate(t *testing.T) {
	g := NewGenerator(512, 100, 1)
	fl := population(t, g, 0.01)
	want := int(512 * 100 * 0.01)
	if len(fl) != want {
		t.Fatalf("fleet size = %d, want %d", len(fl), want)
	}
}

func TestFleetDistinctVictims(t *testing.T) {
	fl := population(t, NewGenerator(32, 4, 7), 0.25)
	seen := make(map[Cell]bool)
	for _, f := range fl {
		if seen[f.Victim] {
			t.Fatalf("duplicate victim %v", f.Victim)
		}
		seen[f.Victim] = true
	}
}

func TestFleetSorted(t *testing.T) {
	fl := population(t, NewGenerator(64, 8, 3), 0.1)
	for i := 1; i < len(fl); i++ {
		if fl[i].Victim.Less(fl[i-1].Victim) {
			t.Fatalf("fleet not sorted at %d", i)
		}
	}
}

func TestFleetBadArgsPanic(t *testing.T) {
	g := NewGenerator(8, 8, 0)
	for name, fn := range map[string]func(){
		"rate":    func() { g.Population(&Scratch{}, nil, 1.5, singletons(PaperDefectClasses()), 0) },
		"classes": func() { g.Population(&Scratch{}, nil, 0.1, nil, 0) },
		"group":   func() { g.Population(&Scratch{}, nil, 0.1, [][]Class{{SA0}, {}}, 0) },
		"geom":    func() { NewGenerator(0, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRandomFieldsWithinBounds(t *testing.T) {
	g := NewGenerator(16, 4, 9)
	for i := 0; i < 500; i++ {
		for _, cl := range Classes() {
			f := g.Random(cl)
			if f.Victim.Addr < 0 || f.Victim.Addr >= 16 || f.Victim.Bit < 0 || f.Victim.Bit >= 4 {
				t.Fatalf("victim out of bounds: %v", f)
			}
			switch cl {
			case CFin, CFid, CFst:
				if f.Aggressor == f.Victim {
					t.Fatalf("aggressor equals victim: %v", f)
				}
			case ADOF:
				if f.Partner == f.Victim.Addr {
					t.Fatalf("AF partner equals victim address: %v", f)
				}
			case TFUp:
				if f.Dir != Up {
					t.Fatalf("TFUp direction = %v", f.Dir)
				}
			case TFDown:
				if f.Dir != Down {
					t.Fatalf("TFDown direction = %v", f.Dir)
				}
			}
		}
	}
}

func TestSortStability(t *testing.T) {
	fs := []Fault{
		{Class: SA1, Victim: Cell{2, 0}},
		{Class: SA0, Victim: Cell{0, 1}},
		{Class: DRF, Victim: Cell{0, 0}},
	}
	Sort(fs)
	if fs[0].Victim != (Cell{0, 0}) || fs[1].Victim != (Cell{0, 1}) || fs[2].Victim != (Cell{2, 0}) {
		t.Fatalf("Sort order wrong: %v", fs)
	}
}

func TestSameSite(t *testing.T) {
	a := Fault{Class: SA0, Victim: Cell{1, 1}}
	b := Fault{Class: DRF, Victim: Cell{1, 1}}
	c := Fault{Class: SA0, Victim: Cell{1, 2}}
	if !a.SameSite(b) || a.SameSite(c) {
		t.Error("SameSite wrong")
	}
}

// Property: fleets at rate r over geometry n*c have exactly
// floor(n*c*r) faults, victims in range, all distinct.
func TestQuickFleetInvariants(t *testing.T) {
	f := func(seed int64, nw, cw, rw uint8) bool {
		n := int(nw%60) + 4
		c := int(cw%16) + 2
		rate := float64(rw%50) / 100
		fl := population(t, NewGenerator(n, c, seed), rate)
		if len(fl) != int(float64(n*c)*rate) {
			return false
		}
		seen := map[Cell]bool{}
		for _, ft := range fl {
			if ft.Victim.Addr >= n || ft.Victim.Bit >= c || seen[ft.Victim] {
				return false
			}
			seen[ft.Victim] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// singletons makes each class its own defect type.
func singletons(classes []Class) [][]Class {
	types := make([][]Class, len(classes))
	for i, c := range classes {
		types[i] = []Class{c}
	}
	return types
}

// population draws g's DRF-free population over PaperDefectClasses
// with every class its own type, on a fresh Scratch.
func population(t *testing.T, g *Generator, rate float64) []Fault {
	t.Helper()
	fl, err := g.Population(&Scratch{}, nil, rate, singletons(PaperDefectClasses()), 0)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// TestPopulationSharedScratch pins that a Scratch carries nothing from
// one draw to the next: draws that share one Scratch across geometries,
// after a failed draw and onto a non-empty dst equal fresh-scratch
// draws.
func TestPopulationSharedScratch(t *testing.T) {
	type geom struct {
		n, c int
		rate float64
		drfs int
	}
	geoms := []geom{{512, 100, 0.005, 4}, {4, 4, 0.5, 20}, {16, 6, 0.5, 6}, {64, 16, 0.01, 2}, {2, 2, 1, 0}}
	var sc Scratch
	for seed := int64(0); seed < 50; seed++ {
		for _, gm := range geoms {
			prefix := []Fault{{Class: SA1, Victim: Cell{Addr: -1}}}
			got, gotErr := NewGenerator(gm.n, gm.c, seed).Population(&sc, prefix, gm.rate, PaperDefectTypes(), gm.drfs)
			want, wantErr := NewGenerator(gm.n, gm.c, seed).Population(&Scratch{}, prefix, gm.rate, PaperDefectTypes(), gm.drfs)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d %dx%d: shared err %v, fresh err %v", seed, gm.n, gm.c, gotErr, wantErr)
			}
			if !slices.Equal(got, want) || got[0] != prefix[0] {
				t.Fatalf("seed %d %dx%d: shared scratch drew %v, fresh %v", seed, gm.n, gm.c, got, want)
			}
		}
	}
}

func TestPopulationDRFPlacementGivesUp(t *testing.T) {
	dst := []Fault{{Class: SA0}}
	got, err := NewGenerator(2, 2, 1).Population(&Scratch{}, dst, 0.5, PaperDefectTypes(), 3)
	if err == nil || err.Error() != "cannot place 3 DRFs" {
		t.Fatalf("err = %v, want \"cannot place 3 DRFs\"", err)
	}
	if !slices.Equal(got, dst) {
		t.Fatalf("failed draw changed dst to %v", got)
	}
}
