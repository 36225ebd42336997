package bisd

import (
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/sram"
)

func TestAddressTriggerSequences(t *testing.T) {
	tr := NewAddressTrigger(4)
	up := tr.Sequence(march.Up)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if up[i] != want[i] {
			t.Fatalf("up sequence = %v", up)
		}
	}
	down := tr.Sequence(march.Down)
	for i := range down {
		if down[i] != 3-i {
			t.Fatalf("down sequence = %v", down)
		}
	}
	anyOrder := tr.Sequence(march.Any)
	if anyOrder[0] != 0 || len(anyOrder) != 4 {
		t.Fatalf("any sequence = %v", anyOrder)
	}
}

func TestAddressTriggerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for trigger size 0")
		}
	}()
	NewAddressTrigger(0)
}

func TestLocalAddressGeneratorWraps(t *testing.T) {
	g := NewLocalAddressGenerator(16)
	if g.Map(5) != 5 || g.Map(16) != 0 || g.Map(35) != 3 {
		t.Fatal("wrap mapping wrong")
	}
	if g.Wrapped(15) || !g.Wrapped(16) || !g.Wrapped(100) {
		t.Fatal("wrap detection wrong")
	}
}

func TestBackgroundGeneratorDelivery(t *testing.T) {
	bg := NewBackgroundGenerator(8, serial.MSBFirst)
	p := bg.Pattern(1)
	if !p.Equal(bitvec.Checkerboard(8)) {
		t.Fatalf("pattern 1 = %s, want checkerboard", p)
	}
	spcs := []*serial.SPC{serial.NewSPC(8), serial.NewSPC(5)}
	cycles := bg.Deliver(p, spcs)
	if cycles != 8 {
		t.Fatalf("delivery cost = %d cycles, want 8", cycles)
	}
	if !spcs[0].Word().Equal(p) {
		t.Fatal("full-width SPC wrong after delivery")
	}
	if !spcs[1].Word().Equal(p.Truncate(5)) {
		t.Fatal("narrow SPC wrong after MSB-first delivery")
	}
}

func TestBackgroundGeneratorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for width 0")
		}
	}()
	NewBackgroundGenerator(0, serial.MSBFirst)
}

func TestComparatorArrayShadowAndCompare(t *testing.T) {
	ca := newComparatorArray(shapeOf(nil, []*sram.Memory{sram.New(4, 4)}))
	w := bitvec.MustParse("1010")
	ca.NoteWrite(0, 2, w)
	if !ca.Expected(0, 2).Equal(w) {
		t.Fatal("shadow not updated")
	}
	if bits := ca.Compare(0, 2, w); bits != nil {
		t.Fatalf("matching word miscompared: %v", bits)
	}
	got := bitvec.MustParse("1110")
	bits := ca.Compare(0, 2, got)
	if len(bits) != 1 || bits[0] != 2 {
		t.Fatalf("failing bits = %v, want [2]", bits)
	}
	// The shadow must be a copy, not an alias.
	w.Set(0, true)
	if ca.Expected(0, 2).Get(0) {
		t.Fatal("shadow aliases the written vector")
	}
}

func TestControlGeneratorChecksNWRTMWire(t *testing.T) {
	cg := &ControlGenerator{NWRTMWired: false}
	if err := cg.Check(march.MarchCMinus()); err != nil {
		t.Fatalf("plain test rejected: %v", err)
	}
	if err := cg.Check(march.WithNWRTM(march.MarchCMinus())); err == nil {
		t.Fatal("NWRC test accepted without the wire")
	}
	cg.NWRTMWired = true
	if err := cg.Check(march.WithNWRTM(march.MarchCMinus())); err != nil {
		t.Fatalf("wired NWRTM rejected: %v", err)
	}
}

func TestFleetGeometry(t *testing.T) {
	geoms := shapeOf(nil, []*sram.Memory{sram.New(16, 8), sram.New(64, 4)})
	n, c := bounds(geoms)
	if n != 64 || c != 8 {
		t.Fatalf("fleet geometry = (%d,%d), want (64,8)", n, c)
	}
	if len(geoms) != 2 || geoms[0].n != 16 || geoms[1].c != 4 {
		t.Fatalf("geoms = %+v", geoms)
	}
	// A bank fleet sizes the controller the same way.
	banks := shapeOf(nil, []*sram.MemoryBank{sram.NewMemoryBank(16, 8), sram.NewMemoryBank(64, 4)})
	if !slices.Equal(banks, geoms) {
		t.Fatalf("bank geoms = %+v, want %+v", banks, geoms)
	}
}
