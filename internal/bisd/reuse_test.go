package bisd

import (
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/sram"
)

// TestBankRunnerReuseClearsLocated runs a faulty batch, a clean batch
// and the faulty batch again on one runner. The lane-mask located
// words a batch sets must not leak into the next: the clean batch must
// locate nothing, and the repeat must report exactly what the first
// run did — with stale words its lanes would see every cell as already
// located and report empty located sets.
func TestBankRunnerReuseClearsLocated(t *testing.T) {
	banks := []*sram.MemoryBank{sram.NewMemoryBank(40, 12), sram.NewMemoryBank(24, 8)}
	load := func() {
		for _, b := range banks {
			b.Reset()
		}
		for l := 0; l < sram.BankLanes; l++ {
			for _, f := range []fault.Fault{
				{Class: fault.SA0, Victim: fault.Cell{Addr: l % 40, Bit: l % 12}},
				{Class: fault.SA1, Victim: fault.Cell{Addr: 7, Bit: 3}},
				{Class: fault.TFUp, Victim: fault.Cell{Addr: (3 * l) % 40, Bit: (l + 5) % 12}},
			} {
				if err := banks[0].Inject(l, f); err != nil {
					t.Fatal(err)
				}
			}
			if err := banks[1].Inject(l, fault.Fault{Class: fault.SA1,
				Victim: fault.Cell{Addr: l % 24, Bit: l % 8}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := NewBankRunner()
	test := march.MarchCW(12)
	opt := ProposedOptions{ClockNs: 10}
	run := func() ([]*Report, string) {
		reps, err := r.Run(banks, sram.BankLanes, test, opt)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(reps)
		if err != nil {
			t.Fatal(err)
		}
		return reps, string(data)
	}

	load()
	reps, first := run()
	for l, rep := range reps {
		if rep.TotalLocated() == 0 {
			t.Fatalf("faulty batch lane %d located nothing; the test is vacuous", l)
		}
	}

	for _, b := range banks {
		b.Reset()
	}
	reps, _ = run()
	for l, rep := range reps {
		if n := rep.TotalLocated(); n != 0 {
			t.Fatalf("clean batch lane %d located %d cells, want 0", l, n)
		}
	}

	load()
	if _, again := run(); again != first {
		t.Fatalf("faulty batch after a clean one differs from its first run:\nfirst: %.300s\nagain: %.300s", first, again)
	}
}

// TestProposedRunnerReuseAfterFaultyRun is the per-device half: a
// ProposedRunner reused after a faulty run must clear its located-set
// bitmap, or the repeat finds every cell already located.
func TestProposedRunnerReuseAfterFaultyRun(t *testing.T) {
	build := func() []*sram.Memory {
		a, b := sram.New(32, 8), sram.New(16, 6)
		mustInject(t, a, fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 3, Bit: 1}})
		mustInject(t, a, fault.Fault{Class: fault.TFUp, Victim: fault.Cell{Addr: 20, Bit: 7}})
		mustInject(t, b, fault.Fault{Class: fault.SA1, Victim: fault.Cell{Addr: 9, Bit: 5}})
		return []*sram.Memory{a, b}
	}
	runner := NewProposedRunner()
	run := func() string {
		rep, err := runner.Run(build(), march.MarchCW(8), ProposedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalLocated() != 3 {
			t.Fatalf("located %d cells, want 3", rep.TotalLocated())
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if first, again := run(), run(); again != first {
		t.Fatalf("reused runner differs from its first run:\nfirst: %s\nagain: %s", first, again)
	}
}

// TestBankRunnerReuseAcrossShapeChange runs faulty batch A, faulty
// batch B of a different fleet geometry (which re-fits the runner) and
// A again on one runner. Every report must equal a fresh runner's: no
// miscompare log entry, record template or located word of one batch
// may reach the next, whichever path — reset or re-fit — the runner
// takes between them.
func TestBankRunnerReuseAcrossShapeChange(t *testing.T) {
	type batch struct {
		geoms []geometry
		test  march.Test
	}
	load := func(b batch) []*sram.MemoryBank {
		banks := make([]*sram.MemoryBank, len(b.geoms))
		for i, g := range b.geoms {
			banks[i] = sram.NewMemoryBank(g.n, g.c)
			for l := 0; l < sram.BankLanes; l++ {
				for _, f := range []fault.Fault{
					{Class: fault.SA0, Victim: fault.Cell{Addr: l % g.n, Bit: l % g.c}},
					{Class: fault.TFUp, Victim: fault.Cell{Addr: (3*l + 1) % g.n, Bit: (l + 5) % g.c}},
					{Class: fault.CFid, Victim: fault.Cell{Addr: (5*l + 2) % g.n, Bit: (l + 1) % g.c},
						Aggressor: fault.Cell{Addr: (l + 9) % g.n, Bit: (l + 2) % g.c}, Value: l%2 == 0},
				} {
					if err := banks[i].Inject(l, f); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return banks
	}
	a := batch{[]geometry{{40, 12}, {24, 8}}, march.WithNWRTM(march.MarchCW(12))}
	b := batch{[]geometry{{32, 10}}, march.MarchCMinus()}
	for _, order := range []serial.Order{serial.MSBFirst, serial.LSBFirst} {
		opt := ProposedOptions{ClockNs: 10, DeliveryOrder: order}
		run := func(r *BankRunner, bt batch) string {
			reps, err := r.Run(load(bt), sram.BankLanes, bt.test, opt)
			if err != nil {
				t.Fatal(err)
			}
			for l, rep := range reps {
				if rep.TotalLocated() == 0 {
					t.Fatalf("order %v lane %d located nothing; the test is vacuous", order, l)
				}
			}
			data, err := json.Marshal(reps)
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
		reused := NewBankRunner()
		for step, bt := range []batch{a, b, a} {
			got, want := run(reused, bt), run(NewBankRunner(), bt)
			if got != want {
				t.Fatalf("order %v step %d: reused runner differs from a fresh one:\nreused: %.300s\nfresh:  %.300s",
					order, step, got, want)
			}
		}
	}
}

// TestBankRunnerKeepHandsOverRecords: after Keep, the next batch must
// not write into the storage behind the last batch's Failures and
// Located slices. A faulty batch's records, kept, must read the same
// after a second, differently faulty batch has run on the runner —
// and without Keep they would not, which shows the second batch does
// reuse that storage.
func TestBankRunnerKeepHandsOverRecords(t *testing.T) {
	load := func(shift int) []*sram.MemoryBank {
		banks := []*sram.MemoryBank{sram.NewMemoryBank(40, 12)}
		for l := 0; l < sram.BankLanes; l++ {
			for _, f := range []fault.Fault{
				{Class: fault.SA0, Victim: fault.Cell{Addr: (l + shift) % 40, Bit: l % 12}},
				{Class: fault.TFUp, Victim: fault.Cell{Addr: (3*l + 1 + shift) % 40, Bit: (l + 5) % 12}},
			} {
				if err := banks[0].Inject(l, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return banks
	}
	test := march.MarchCW(12)
	opt := ProposedOptions{ClockNs: 10}
	for _, keep := range []bool{true, false} {
		r := NewBankRunner()
		first, err := r.Run(load(0), sram.BankLanes, test, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The structs are the runner's either way; hold the slices.
		mems := make([]MemoryResult, len(first))
		for l, rep := range first {
			mems[l] = rep.Memories[0]
		}
		before, err := json.Marshal(mems)
		if err != nil {
			t.Fatal(err)
		}
		if keep {
			r.Keep()
		}
		if _, err := r.Run(load(7), sram.BankLanes, test, opt); err != nil {
			t.Fatal(err)
		}
		after, err := json.Marshal(mems)
		if err != nil {
			t.Fatal(err)
		}
		if changed := string(after) != string(before); changed == keep {
			t.Fatalf("keep=%v: records changed across the next batch = %v", keep, changed)
		}
	}
}
