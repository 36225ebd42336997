package sram

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// exerciseAndSense writes a pattern sweep over the memory and returns
// every sensed word, driving both the word-wise fast path and the
// per-bit fault paths.
func exerciseAndSense(m *Memory) []string {
	var out []string
	for _, bg := range []bitvec.Vector{
		bitvec.Solid(m.C(), false),
		bitvec.Solid(m.C(), true),
		bitvec.Checkerboard(m.C()),
	} {
		for addr := 0; addr < m.N(); addr++ {
			m.Write(addr, bg)
		}
		for addr := 0; addr < m.N(); addr++ {
			out = append(out, m.Read(addr).String())
		}
	}
	return out
}

func sampleFaults() []fault.Fault {
	return []fault.Fault{
		{Class: fault.SA0, Victim: fault.Cell{Addr: 3, Bit: 1}},
		{Class: fault.SA1, Victim: fault.Cell{Addr: 7, Bit: 0}},
		{Class: fault.TFUp, Victim: fault.Cell{Addr: 2, Bit: 2}},
		{Class: fault.CFid, Dir: fault.Up, Value: true,
			Aggressor: fault.Cell{Addr: 1, Bit: 0}, Victim: fault.Cell{Addr: 9, Bit: 3}},
		{Class: fault.CFst, AggState: true, Value: false,
			Aggressor: fault.Cell{Addr: 4, Bit: 1}, Victim: fault.Cell{Addr: 11, Bit: 2}},
		{Class: fault.SOF, Victim: fault.Cell{Addr: 12, Bit: 3}},
		{Class: fault.ADOF, AF: fault.AFMultiCell, Victim: fault.Cell{Addr: 5}, Partner: 13},
		{Class: fault.ADOF, AF: fault.AFMultiAddress, Victim: fault.Cell{Addr: 6}, Partner: 14},
		{Class: fault.CDF, Victim: fault.Cell{Bit: 0}, Bit2: 2},
		{Class: fault.DRF, Value: true, Victim: fault.Cell{Addr: 15, Bit: 1}},
	}
}

// TestResetRestoresFaultFreeBehaviour: a Memory that saw every fault
// class and arbitrary data must, after Reset, behave exactly like a
// freshly allocated one — the invariant the sweep worker pool rests on.
func TestResetRestoresFaultFreeBehaviour(t *testing.T) {
	m := New(16, 4)
	for _, f := range sampleFaults() {
		if err := m.Inject(f); err != nil {
			t.Fatalf("inject %v: %v", f, err)
		}
	}
	m.Hold(100)
	exerciseAndSense(m)

	m.Reset()
	if len(m.Faults()) != 0 {
		t.Fatalf("faults after Reset: %v", m.Faults())
	}
	for addr := 0; addr < m.N(); addr++ {
		for bit := 0; bit < m.C(); bit++ {
			if m.Peek(addr, bit) {
				t.Fatalf("cell %d.%d not zeroed by Reset", addr, bit)
			}
		}
	}
	got := exerciseAndSense(m)
	want := exerciseAndSense(New(16, 4))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sense %d after Reset = %s, fresh memory = %s", i, got[i], want[i])
		}
	}
}

// TestResetThenReinjectBehavesLikeFresh: recycled memories must match
// fresh ones fault-for-fault, including couplings whose side tables
// keep capacity across ClearFaults.
func TestResetThenReinjectBehavesLikeFresh(t *testing.T) {
	recycled := New(16, 4)
	for _, prev := range sampleFaults() {
		if err := recycled.Inject(prev); err != nil {
			t.Fatal(err)
		}
		exerciseAndSense(recycled)
		recycled.Reset()
	}

	f := fault.Fault{Class: fault.CFin, Dir: fault.Down,
		Aggressor: fault.Cell{Addr: 9, Bit: 3}, Victim: fault.Cell{Addr: 2, Bit: 1}}
	if err := recycled.Inject(f); err != nil {
		t.Fatal(err)
	}
	fresh := New(16, 4)
	if err := fresh.Inject(f); err != nil {
		t.Fatal(err)
	}
	got, want := exerciseAndSense(recycled), exerciseAndSense(fresh)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sense %d: recycled = %s, fresh = %s", i, got[i], want[i])
		}
	}
}

// TestClearFaultsKeepsData: ClearFaults heals the array without
// touching the stored values (beyond what the faults already did).
func TestClearFaultsKeepsData(t *testing.T) {
	m := New(8, 4)
	if err := m.Inject(fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 2, Bit: 0}}); err != nil {
		t.Fatal(err)
	}
	pat := bitvec.MustParse("0101")
	for addr := 0; addr < 8; addr++ {
		m.Write(addr, pat)
	}
	m.ClearFaults()
	for _, addr := range []int{2, 5} {
		if got := m.Read(addr); got.String() != "0101" {
			t.Fatalf("addr %d after ClearFaults = %s, want 0101", addr, got)
		}
	}
}

// TestReadIntoMatchesRead: the allocation-free read path must sense
// exactly what Read senses, on both fast and fault paths.
func TestReadIntoMatchesRead(t *testing.T) {
	m := New(16, 4)
	for _, f := range sampleFaults() {
		if err := m.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	cb := bitvec.Checkerboard(4)
	for addr := 0; addr < 16; addr++ {
		m.Write(addr, cb)
	}
	buf := bitvec.New(4)
	for addr := 0; addr < 16; addr++ {
		// Read then ReadInto back to back: a stuck-open read repeats
		// the latch without updating it, so the pair must agree.
		want := m.Read(addr)
		m.ReadInto(addr, buf)
		if !buf.Equal(want) {
			t.Fatalf("ReadInto(%d) = %s, Read = %s", addr, buf, want)
		}
	}
}

// TestSOFInjectedAfterReadsSeesLatchHistory: the sense latch must
// track word-wise fast-path reads too, so a stuck-open cell injected
// after reads repeats the true last-sensed column value.
func TestSOFInjectedAfterReadsSeesLatchHistory(t *testing.T) {
	m := New(4, 4)
	ones := bitvec.Solid(4, true)
	m.Write(0, ones)
	m.Read(0) // fast-path read must latch 1111
	if err := m.Inject(fault.Fault{Class: fault.SOF, Victim: fault.Cell{Addr: 1, Bit: 2}}); err != nil {
		t.Fatal(err)
	}
	got := m.Read(1)
	if !got.Get(2) {
		t.Fatalf("SOF column after reading 1111 = %s; sense amp should repeat 1", got)
	}
}

// TestReadIntoRejectsWidthMismatch guards the engine against silently
// sensing into a wrong-width buffer.
func TestReadIntoRejectsWidthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReadInto accepted a wrong-width buffer")
		}
	}()
	New(8, 4).ReadInto(0, bitvec.New(5))
}

// TestBankReuseAcrossResetRestartsDRFTimers pins the write kernel's
// skip of retention-timer resets before a bank's first Hold: after a
// Hold and a Reset, a reused bank must still reset a DRF's timer on
// every write once it holds again. Two sub-threshold holds separated
// by a write must not fire the DRF, on the bank as on the per-device
// Memory. FuzzMemoryBank always starts from a fresh bank, so it never
// covers this reuse.
func TestBankReuseAcrossResetRestartsDRFTimers(t *testing.T) {
	const n, c, lane = 4, 6, 5
	hold := DefaultRetentionThresholdMs * 0.6 // two holds cross the threshold
	drf := fault.Fault{Class: fault.DRF, Victim: fault.Cell{Addr: 2, Bit: 3}, Value: true}
	ones := bitvec.Solid(c, true)

	b := NewMemoryBank(n, c)
	b.Hold(hold)
	b.Reset()
	if err := b.Inject(lane, drf); err != nil {
		t.Fatal(err)
	}
	ref := New(n, c)
	if err := ref.Inject(drf); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		b.Write(2, ones)
		ref.Write(2, ones)
		b.Hold(hold)
		ref.Hold(hold)
	}
	if !ref.ReadBit(2, 3) {
		t.Fatal("reference Memory lost the DRF value; the test no longer exercises the timer reset")
	}
	if v, special := b.PeekLane(2, 3, lane); !special || !v {
		t.Fatalf("reused bank lane %d cell 2.3 = %v (special %v), want true: the write did not restart the DRF timer",
			lane, v, special)
	}
}

// TestBankResetReloadRotatedLanes is the unit form of FuzzMemoryBank's
// second round: a bank that was loaded, sealed and driven, then Reset
// and reloaded with every lane's faults moved one lane up, must sense
// exactly what freshly reset reference Memories sense, lane by lane.
// The reload unseals the bank, so the first write after it reseals
// cells left in the rotated injection order.
func TestBankResetReloadRotatedLanes(t *testing.T) {
	const n, c = 16, 6
	classes := []fault.Class{
		fault.SA0, fault.SA1, fault.TFUp, fault.TFDown,
		fault.CFid, fault.CFin, fault.CFst, fault.DRF,
	}
	// laneFaults is lane l's fault list: every class, at cells that
	// move with the lane, so a rotation changes every lane's layout.
	laneFaults := func(l int) []fault.Fault {
		var fs []fault.Fault
		for k, class := range classes {
			fs = append(fs, fault.Fault{
				Class:     class,
				Victim:    fault.Cell{Addr: (2*k + l) % n, Bit: k % c},
				Aggressor: fault.Cell{Addr: (2*k + l + 7) % n, Bit: (k + 3) % c},
				Dir:       fault.Dir(l % 2),
				Value:     (k+l)%2 == 0,
				AggState:  l%3 == 0,
			})
		}
		return fs
	}
	bank := NewMemoryBank(n, c)
	refs := make([]*Memory, BankLanes)
	for l := range refs {
		refs[l] = New(n, c)
	}
	load := func(rot int) {
		for l := 0; l < BankLanes; l++ {
			lane := (l + rot) % BankLanes
			for _, f := range laneFaults(l) {
				bankErr := bank.Inject(lane, f)
				if refErr := refs[lane].Inject(f); (bankErr == nil) != (refErr == nil) {
					t.Fatalf("inject %v lane %d: bank err %v, reference err %v", f, lane, bankErr, refErr)
				}
			}
		}
	}
	sweep := func(rot int) {
		written := bitvec.NewMatrix(c, n)
		out, refOut := bitvec.New(c), bitvec.New(c)
		for _, bg := range []bitvec.Vector{
			bitvec.Solid(c, true), bitvec.Checkerboard(c), bitvec.Solid(c, false),
		} {
			for addr := 0; addr < n; addr++ {
				bank.Write(addr, bg)
				bank.WriteWeak(addr, bg)
				for _, m := range refs {
					m.Write(addr, bg)
					m.WriteWeak(addr, bg)
				}
				written[addr].CopyFrom(bg)
			}
			bank.Hold(100) // past the 62.5 ms threshold: DRFs fire
			for _, m := range refs {
				m.Hold(100)
			}
			for addr := 0; addr < n; addr++ {
				for l := 0; l < BankLanes; l++ {
					bank.ReadInto(addr, l, written[addr], out)
					refs[l].ReadInto(addr, refOut)
					if !out.Equal(refOut) {
						t.Fatalf("rotation %d background %s: lane %d row %d sensed %s, reference %s",
							rot, bg, l, addr, out, refOut)
					}
				}
			}
		}
	}

	load(0)
	sweep(0)
	bank.Reset()
	for _, m := range refs {
		m.Reset()
	}
	load(1)
	sweep(1)
}
