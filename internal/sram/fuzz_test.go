package sram

import (
	"errors"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// Differential fuzzing of the bit-sliced MemoryBank against BankLanes
// independent Memory references, in the internal/serial fuzz style: the
// raw fuzz bytes are interpreted as an operation program (per-lane
// fault injection, word writes in all three flavors, retention holds,
// row reads), the bank and all 64 reference memories execute it in
// lockstep, and any observable divergence — sensed rows, raw stored
// bits, injection error parity — fails.
//
// The bank's contract is that faults load into the reset all-zero
// state (a lane's special cells materialize with zeroed lane words),
// so the program has an injection phase that ends at the first
// mutating op; inject opcodes drawn after that reinterpret as row
// inversion writes, keeping the fuzz entropy useful. Each input runs
// twice on one bank: fresh, then after Reset with every fault moved
// one lane up, so reload and reseal of a used bank are fuzzed too.

// fuzzBankPattern derives a deterministic width-c pattern from a seed
// byte, splitmix-style, as internal/serial's fuzzPattern does.
func fuzzBankPattern(width int, seed byte) bitvec.Vector {
	v := bitvec.New(width)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9
	for i := 0; i < width; i++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		if x&(1<<uint(i%64)) != 0 {
			v.Set(i, true)
		}
	}
	return v
}

// fuzzBankFault decodes a fault from four program bytes. The class
// byte also covers SOF so the ErrUnbankable contract is exercised.
func fuzzBankFault(n, c int, d0, d1, d2 byte) fault.Fault {
	classes := []fault.Class{
		fault.SA0, fault.SA1, fault.TFUp, fault.TFDown,
		fault.CFid, fault.CFin, fault.CFst, fault.DRF, fault.SOF,
	}
	f := fault.Fault{
		Class:  classes[int(d0)%len(classes)],
		Victim: fault.Cell{Addr: int(d1) % n, Bit: int(d1>>4) % c},
		Aggressor: fault.Cell{
			Addr: int(d2) % n, Bit: int(d2>>4) % c,
		},
		Value:    d0&0x10 != 0,
		AggState: d0&0x20 != 0,
	}
	if d0&0x40 != 0 {
		f.Dir = fault.Down
	}
	return f
}

func FuzzMemoryBank(f *testing.F) {
	// Seed corpus: a fault on lane 0, on lane 63, on every lane, and on
	// no lane at all, each followed by a little March-ish traffic
	// (write, NWRC write, weak write, hold, read).
	f.Add([]byte{8, 6, 0, 0, 0x11, 0x23, 1, 3, 0x55, 2, 3, 0xaa, 4, 200, 5, 3})
	f.Add([]byte{8, 6, 0, 63, 0x47, 0x23, 1, 3, 0x55, 4, 100, 4, 100, 5, 3})
	allLanes := []byte{8, 6}
	for l := 0; l < BankLanes; l++ {
		allLanes = append(allLanes, 0, byte(l), byte(l), byte(l/2))
	}
	allLanes = append(allLanes, 1, 3, 0x55, 3, 3, 0x0f, 4, 200, 5, 3)
	f.Add(allLanes)
	f.Add([]byte{8, 6, 1, 0, 0x55, 2, 1, 0xaa, 5, 0, 5, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0])%14 + 2
		c := int(data[1])%12 + 1
		data = data[2:]

		bank := NewMemoryBank(n, c)
		refs := make([]*Memory, BankLanes)
		for l := range refs {
			refs[l] = New(n, c)
		}
		out := bitvec.New(c)
		refOut := bitvec.New(c)

		// round runs the program once, every injected fault moved rot
		// lanes up, then sweeps every row and raw bit. A truncated
		// op ends the program.
		round := func(rot int) {
			// written is the scalar shadow every clean cell of every
			// lane holds — the bank caller's half of the contract.
			written := bitvec.NewMatrix(c, n)
			mutated := false
			checkRow := func(addr int) {
				for l := 0; l < BankLanes; l++ {
					bank.ReadInto(addr, l, written[addr], out)
					refs[l].ReadInto(addr, refOut)
					if !out.Equal(refOut) {
						t.Fatalf("%dx%d round %d: lane %d row %d sensed %s, reference %s",
							n, c, rot, l, addr, out, refOut)
					}
				}
			}

			i := 0
			next := func() (byte, bool) {
				if i >= len(data) {
					return 0, false
				}
				b := data[i]
				i++
				return b, true
			}
		program:
			for {
				op, ok := next()
				if !ok {
					break
				}
				switch op % 6 {
				case 0: // inject (pristine) / invert a row (after mutation)
					d0, ok0 := next()
					d1, ok1 := next()
					d2, ok2 := next()
					if !ok0 || !ok1 || !ok2 {
						break program
					}
					if mutated {
						addr := int(d1) % n
						w := bitvec.New(c)
						w.InvertFrom(written[addr])
						bank.Write(addr, w)
						for _, m := range refs {
							m.Write(addr, w)
						}
						written[addr].CopyFrom(w)
						continue
					}
					lane := (int(d0) + rot) % BankLanes
					ft := fuzzBankFault(n, c, d0, d1, d2)
					bankErr := bank.Inject(lane, ft)
					if ft.Class == fault.SOF {
						if !errors.Is(bankErr, ErrUnbankable) {
							t.Fatalf("SOF inject err = %v, want ErrUnbankable", bankErr)
						}
						continue // the production path diverges this lane
					}
					refErr := refs[lane].Inject(ft)
					if (bankErr == nil) != (refErr == nil) {
						t.Fatalf("round %d inject %v lane %d: bank err %v, reference err %v",
							rot, ft, lane, bankErr, refErr)
					}
				case 1, 2, 3: // write / NWRC write / weak write
					d0, ok0 := next()
					d1, ok1 := next()
					if !ok0 || !ok1 {
						break program
					}
					mutated = true
					addr := int(d0) % n
					w := fuzzBankPattern(c, d1)
					switch op % 6 {
					case 1:
						bank.Write(addr, w)
						for _, m := range refs {
							m.Write(addr, w)
						}
						written[addr].CopyFrom(w)
					case 2:
						bank.WriteNWRC(addr, w)
						for _, m := range refs {
							m.WriteNWRC(addr, w)
						}
						written[addr].CopyFrom(w)
					case 3:
						// Weak writes drive only vulnerable DRF cells;
						// clean cells keep their value, so the shadow
						// is untouched.
						bank.WriteWeak(addr, w)
						for _, m := range refs {
							m.WriteWeak(addr, w)
						}
					}
				case 4: // retention hold
					d0, ok0 := next()
					if !ok0 {
						break program
					}
					mutated = true
					ms := float64(d0) // 0..255 ms straddles the 62.5 ms default
					bank.Hold(ms)
					for _, m := range refs {
						m.Hold(ms)
					}
				case 5: // read-compare one row, all lanes
					d0, ok0 := next()
					if !ok0 {
						break program
					}
					checkRow(int(d0) % n)
				}
			}

			// Final sweep: every row sensed on every lane, and every raw
			// stored bit. PeekLane reports special=false for cells that
			// are clean in all lanes — those must hold the scalar shadow.
			for addr := 0; addr < n; addr++ {
				checkRow(addr)
				for bit := 0; bit < c; bit++ {
					for l := 0; l < BankLanes; l++ {
						v, special := bank.PeekLane(addr, bit, l)
						if !special {
							v = written[addr].Get(bit)
						}
						if want := refs[l].Peek(addr, bit); v != want {
							t.Fatalf("%dx%d round %d: lane %d cell %d.%d stored %v (special=%v), reference %v",
								n, c, rot, l, addr, bit, v, special, want)
						}
					}
				}
			}
		}

		// The second round reuses the bank: Reset, a reload with every
		// lane rotated by one and a fresh seal, against reset
		// references.
		round(0)
		bank.Reset()
		for _, m := range refs {
			m.Reset()
		}
		round(1)
	})
}
