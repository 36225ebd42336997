package memtest

import (
	"testing"

	"repro/internal/fault"
)

// mapScore is the map-based scoring evaluate used before its merge
// walk: the detectable victims go into a set, then every located cell
// is looked up.
func mapScore(truth []fault.Fault, located []Cell, includeDRF bool) (detectable, truthLocated, falsePositives int) {
	victims := make(map[Cell]bool)
	for _, ft := range truth {
		if ft.Class == fault.DRF && !includeDRF {
			continue
		}
		detectable++
		victims[ft.Victim] = true
	}
	for _, c := range located {
		if victims[c] {
			truthLocated++
		} else {
			falsePositives++
		}
	}
	return detectable, truthLocated, falsePositives
}

func TestEvaluateMatchesMapScoring(t *testing.T) {
	sa := func(a, b int) fault.Fault { return fault.Fault{Class: fault.SA0, Victim: Cell{Addr: a, Bit: b}} }
	cfin := func(a, b int) fault.Fault {
		return fault.Fault{Class: fault.CFin, Victim: Cell{Addr: a, Bit: b}, Aggressor: Cell{Addr: a + 1, Bit: b}}
	}
	drf := func(a, b int) fault.Fault {
		return fault.Fault{Class: fault.DRF, Victim: Cell{Addr: a, Bit: b}, Value: true}
	}
	cells := func(cs ...int) []Cell {
		out := make([]Cell, 0, len(cs)/2)
		for i := 0; i < len(cs); i += 2 {
			out = append(out, Cell{Addr: cs[i], Bit: cs[i+1]})
		}
		return out
	}
	rows := []struct {
		name    string
		truth   []fault.Fault
		located []Cell
	}{
		{"empty", nil, nil},
		{"no_truth", nil, cells(0, 0, 3, 1)},
		{"nothing_located", []fault.Fault{sa(1, 1), drf(2, 0)}, nil},
		// Memory.Inject links a CFin onto a stuck-at victim, so one
		// cell can carry two truth faults.
		{"linked_sa_cfin", []fault.Fault{sa(0, 1), sa(2, 2), cfin(2, 2), sa(5, 0)}, cells(0, 1, 2, 2, 5, 0)},
		{"drf_victims", []fault.Fault{sa(0, 0), drf(1, 3), drf(4, 2), sa(6, 1)}, cells(0, 0, 1, 3, 4, 2, 6, 1)},
		// An SA and a DRF on one victim: the cell is truth-located
		// whether or not DRFs count.
		{"drf_shares_victim", []fault.Fault{drf(1, 1), sa(3, 0), drf(3, 0)}, cells(1, 1, 3, 0)},
		{"false_positives", []fault.Fault{sa(2, 0), cfin(4, 4)}, cells(0, 0, 2, 0, 3, 9, 4, 4, 9, 9)},
		{"past_the_end", []fault.Fault{sa(0, 0)}, cells(7, 0, 8, 1)},
		{"duplicate_located", []fault.Fault{sa(2, 2), drf(3, 3)}, cells(2, 2, 2, 2, 3, 3, 3, 3)},
		{"unsorted_located", []fault.Fault{sa(0, 0), sa(2, 1), drf(4, 0)}, cells(4, 0, 2, 1, 0, 0, 5, 5, 2, 1)},
	}
	for _, row := range rows {
		for _, includeDRF := range []bool{false, true} {
			s := &Session{eopt: EngineOptions{IncludeDRF: includeDRF}}
			got := s.evaluate("m", row.truth, &MemoryReport{Words: 16, Width: 8, Located: row.located})
			det, tl, fp := mapScore(row.truth, row.located, includeDRF)
			if got.Injected != len(row.truth) || got.Detectable != det || got.TruthLocated != tl || got.FalsePositives != fp {
				t.Errorf("%s drf=%v: injected/detectable/located/false = %d/%d/%d/%d, map scoring %d/%d/%d/%d",
					row.name, includeDRF, got.Injected, got.Detectable, got.TruthLocated, got.FalsePositives,
					len(row.truth), det, tl, fp)
			}
		}
	}
}
