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
	classes := []fault.Class{
		fault.SA0, fault.SA1, fault.TFUp, fault.TFDown,
		fault.CFin, fault.CFid, fault.CFst, fault.DRF,
	}
	const perMemory = 6
	rng := rand.New(rand.NewSource(19))
	// faults[l][i] is lane l's fault list for memory i, in injection
	// order; a draw the per-memory dup rules refuse is skipped.
	faults := make([][][]fault.Fault, sram.BankLanes)
	cfst := 0
	for l := range faults {
		faults[l] = make([][]fault.Fault, len(geoms))
		for i, g := range geoms {
			gen := fault.NewGenerator(g.n, g.c, rng.Int63())
			probe := sram.New(g.n, g.c)
			for len(faults[l][i]) < perMemory {
				f := gen.Random(classes[rng.Intn(len(classes))])
				// Half the CFsts take an earlier fault's victim as their
				// aggressor. A coupling or a retention loss can then move
				// the aggressor into its active state with no write and
				// no propagation, so only the read-side forcing shows
				// the victim's forced value.
				if prev := faults[l][i]; f.Class == fault.CFst && len(prev) > 0 && rng.Intn(2) == 0 {
					if a := prev[rng.Intn(len(prev))].Victim; a != f.Victim {
						f.Aggressor = a
					}
				}
				if probe.Inject(f) != nil {
					continue
				}
				faults[l][i] = append(faults[l][i], f)
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
				mems := make([]*sram.Memory, len(geoms))
				for i, g := range geoms {
					mems[i] = sram.New(g.n, g.c)
					for _, f := range faults[l][i] {
						mustInject(t, mems[i], f)
					}
				}
				want, err := RunProposed(mems, test, opt)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := reportJSON(t, rep), reportJSON(t, want); g != w {
					t.Fatalf("%s order %v lane %d: bank report differs from RunProposed:\nbank:    %.400s\nproposed: %.400s",
						test.Name, order, l, g, w)
				}
			}
		}
	}
}

func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
