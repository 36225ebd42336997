package bisd

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/serial"
	"repro/internal/sram"
)

// TestBankRunnerMatchesProposedRunner is the bisd-level differential
// for the two runners that share the controller: one BankRunner pass
// over 64 lanes must report, lane by lane, exactly the JSON RunProposed
// produces for that lane's device alone. The fleet mixes widths and
// depths (24x12, 32x8, 16x5), so background truncation and address
// wrap are both in play, and every lane draws random faults from all
// bankable classes — including CFst, which the Plan-built fleets of
// the memtest wall never contain.
func TestBankRunnerMatchesProposedRunner(t *testing.T) {
	geoms := []geometry{{24, 12}, {32, 8}, {16, 5}}
	const perMemory = 6
	rng := rand.New(rand.NewSource(19))
	// faults[l][i] is lane l's fault list for memory i, in injection
	// order.
	faults := make([][][]fault.Fault, sram.BankLanes)
	cfst := 0
	for l := range faults {
		faults[l] = make([][]fault.Fault, len(geoms))
		for i, g := range geoms {
			faults[l][i] = drawBankable(rng, g, perMemory)
			for _, f := range faults[l][i] {
				if f.Class == fault.CFst {
					cfst++
				}
			}
		}
	}
	if cfst == 0 {
		t.Fatal("no lane drew a CFst; the differential misses the state-coupling path")
	}

	tests := []march.Test{
		march.WithNWRTM(march.MarchCW(12)),
		march.WithWWTM(march.MarchCW(12)),
		march.DelayRetentionTest(100),
		march.MarchCMinus(),
	}
	runner := NewBankRunner()
	for _, order := range []serial.Order{serial.MSBFirst, serial.LSBFirst} {
		for _, test := range tests {
			opt := ProposedOptions{ClockNs: 10, DeliveryOrder: order}
			banks := make([]*sram.MemoryBank, len(geoms))
			for i, g := range geoms {
				banks[i] = sram.NewMemoryBank(g.n, g.c)
				for l := range faults {
					if ok, err := banks[i].LoadLane(l, faults[l][i]); !ok || err != nil {
						t.Fatalf("lane %d memory %d: LoadLane = %v, %v", l, i, ok, err)
					}
				}
			}
			got, err := runner.Run(banks, sram.BankLanes, test, opt)
			if err != nil {
				t.Fatal(err)
			}
			for l, rep := range got {
				want := soloReport(t, geoms, faults[l], test, opt)
				if g, w := reportJSON(t, rep), reportJSON(t, want); g != w {
					t.Fatalf("%s order %v lane %d: bank report differs from RunProposed:\nbank:    %.400s\nproposed: %.400s",
						test.Name, order, l, g, w)
				}
			}
		}
	}
}

// FuzzBankRunnerMatchesProposedRunner is the randomized form of
// TestBankRunnerMatchesProposedRunner. An input picks a seed, one to
// three memories of up to 16x12 (shape holds one (words, width) byte
// pair per memory), a lane count and the delivery order. The seed
// draws the March test and every lane's faults, from all bankable
// classes. One runner then diagnoses two batches of the same banks,
// the second after the first has reset it, at lanes and 65-lanes
// lanes, and every lane must report exactly the JSON RunProposed
// produces for its device alone. The seed corpus is in
// testdata/fuzz/FuzzBankRunnerMatchesProposedRunner.
func FuzzBankRunnerMatchesProposedRunner(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape []byte, lanes uint8, lsb bool) {
		geoms := make([]geometry, min(3, len(shape)/2))
		if len(geoms) == 0 {
			return
		}
		cMax := 0
		for i := range geoms {
			geoms[i] = geometry{n: 2 + int(shape[2*i])%15, c: 1 + int(shape[2*i+1])%12}
			cMax = max(cMax, geoms[i].c)
		}
		rng := rand.New(rand.NewSource(seed))
		test := []march.Test{
			march.WithNWRTM(march.MarchCW(cMax)),
			march.WithWWTM(march.MarchCW(cMax)),
			march.DelayRetentionTest(100),
			march.MarchCMinus(),
		}[rng.Intn(4)]
		opt := ProposedOptions{ClockNs: 10, DeliveryOrder: serial.MSBFirst}
		if lsb {
			opt.DeliveryOrder = serial.LSBFirst
		}
		banks := make([]*sram.MemoryBank, len(geoms))
		for i, g := range geoms {
			banks[i] = sram.NewMemoryBank(g.n, g.c)
		}
		runner := NewBankRunner()
		first := 1 + int(lanes)%sram.BankLanes
		for _, n := range []int{first, sram.BankLanes + 1 - first} {
			faults := make([][][]fault.Fault, n)
			for l := range faults {
				faults[l] = make([][]fault.Fault, len(geoms))
				for i, g := range geoms {
					faults[l][i] = drawBankable(rng, g, rng.Intn(7))
				}
			}
			for i, b := range banks {
				b.Reset()
				for l := range faults {
					if ok, err := b.LoadLane(l, faults[l][i]); !ok || err != nil {
						t.Fatalf("lane %d memory %d: LoadLane = %v, %v", l, i, ok, err)
					}
				}
			}
			got, err := runner.Run(banks, n, test, opt)
			if err != nil {
				t.Fatal(err)
			}
			for l, rep := range got {
				want := soloReport(t, geoms, faults[l], test, opt)
				if g, w := reportJSON(t, rep), reportJSON(t, want); g != w {
					t.Fatalf("%v %s order %v, %d lanes, lane %d: bank report differs from RunProposed:\nbank:    %.400s\nproposed: %.400s",
						geoms, test.Name, opt.DeliveryOrder, n, l, g, w)
				}
			}
		}
	})
}

// bankableClasses are the fault classes a MemoryBank lane holds.
var bankableClasses = []fault.Class{
	fault.SA0, fault.SA1, fault.TFUp, fault.TFDown,
	fault.CFin, fault.CFid, fault.CFst, fault.DRF,
}

// drawBankable draws up to perMemory faults of random bankable classes
// for one memory, in injection order. A draw the memory's dup rules
// refuse is skipped, and a small memory that runs out of victims ends
// the draw early.
func drawBankable(rng *rand.Rand, g geometry, perMemory int) []fault.Fault {
	gen := fault.NewGenerator(g.n, g.c, rng.Int63())
	probe := sram.New(g.n, g.c)
	var faults []fault.Fault
	for tries := 0; len(faults) < perMemory && tries < 50*perMemory; tries++ {
		f := gen.Random(bankableClasses[rng.Intn(len(bankableClasses))])
		// Half the CFsts take an earlier fault's victim as their
		// aggressor. A coupling or a retention loss can then move the
		// aggressor into its active state with no write and no
		// propagation, so only the read-side forcing shows the
		// victim's forced value.
		if f.Class == fault.CFst && len(faults) > 0 && rng.Intn(2) == 0 {
			if a := faults[rng.Intn(len(faults))].Victim; a != f.Victim {
				f.Aggressor = a
			}
		}
		if probe.Inject(f) != nil {
			continue
		}
		faults = append(faults, f)
	}
	return faults
}

// soloReport runs RunProposed on one device: fresh memories of geoms
// with faults[i] injected into memory i.
func soloReport(t *testing.T, geoms []geometry, faults [][]fault.Fault, test march.Test, opt ProposedOptions) *Report {
	t.Helper()
	mems := make([]*sram.Memory, len(geoms))
	for i, g := range geoms {
		mems[i] = sram.New(g.n, g.c)
		for _, f := range faults[i] {
			mustInject(t, mems[i], f)
		}
	}
	rep, err := RunProposed(mems, test, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
