// Package diagnose is the off-line analysis stage of the diagnosis
// flow: the scheme registers failure records ("the diagnosis
// information, e.g., the faulty address, applied data background, etc."
// — Sec. 3.1) and this package turns a cell's failure signature into a
// probable fault classification, the way a failure-analysis engineer
// (or a repair policy choosing between spare rows and spare columns)
// would read the scan-out.
//
// Classification works purely from the logical March response, so some
// classes are inherently indistinguishable: a stuck-at-0 cell and a
// cell whose up-transition always fails produce identical signatures
// under any March test that initializes the array to a known value.
// The verdicts reflect that honestly.
package diagnose

import (
	"fmt"

	"repro/internal/bisd"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/march"
)

// Verdict is the classified failure mode of one cell.
type Verdict int

const (
	// Unknown: no reads of the needed polarity to decide.
	Unknown Verdict = iota
	// AlwaysZero: every read expecting 1 failed — a stuck-at-0 cell or
	// an up-transition fault (logically indistinguishable).
	AlwaysZero
	// AlwaysOne: every read expecting 0 failed — stuck-at-1 or a
	// down-transition fault.
	AlwaysOne
	// RetentionOne: only reads whose setup write was a No Write
	// Recovery Cycle of 1 failed — a data-retention fault losing 1s
	// (open pull-up on the true node).
	RetentionOne
	// RetentionZero: the symmetric DRF losing 0s.
	RetentionZero
	// Intermittent: a proper subset of same-polarity reads failed —
	// the signature of coupling faults (state-dependent behaviour).
	Intermittent
)

var verdictNames = map[Verdict]string{
	Unknown: "unknown", AlwaysZero: "always-0 (SA0/TF-up)", AlwaysOne: "always-1 (SA1/TF-down)",
	RetentionOne: "retention DRF<1>", RetentionZero: "retention DRF<0>",
	Intermittent: "intermittent (coupling)",
}

// String names the verdict.
func (v Verdict) String() string {
	if s, ok := verdictNames[v]; ok {
		return s
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Consistent reports whether the verdict is a plausible classification
// for the given injected fault class — used to score diagnosis quality
// against ground truth.
func (v Verdict) Consistent(c fault.Class) bool {
	switch c {
	case fault.SA0, fault.TFUp:
		return v == AlwaysZero
	case fault.SA1, fault.TFDown:
		return v == AlwaysOne
	case fault.DRF:
		return v == RetentionOne || v == RetentionZero
	case fault.CFin, fault.CFid, fault.CFst:
		return v == Intermittent
	default:
		// Decoder-level and stuck-open faults produce cell signatures
		// of several shapes; any verdict is acceptable.
		return true
	}
}

// CellDiagnosis pairs a located cell with its classification.
type CellDiagnosis struct {
	Cell    fault.Cell
	Verdict Verdict
	// Fails counts the failing reads behind the verdict.
	Fails int
}

// String renders a scan-out analysis line.
func (d CellDiagnosis) String() string {
	return fmt.Sprintf("cell %v: %s (%d failing reads)", d.Cell, d.Verdict, d.Fails)
}

// readSite describes one read op in the expanded execution schedule:
// the key (element execution index, op index) matches the engine's
// FailureRecord fields.
type readSite struct {
	elem, op int
	// bg is the background index; inverted the op's data sense.
	bg       int
	inverted bool
	// setupNWRC marks reads whose governing write (the op that last
	// set the expected value before this read) was an NWRC write.
	setupNWRC bool
}

// schedule returns every read site of the test's schedule on a
// controller whose widest memory is width bits — the schedule the
// proposed engine runs.
func schedule(t march.Test, width int) []readSite {
	var sites []readSite
	// A read's setup is the last write before it in program order.
	lastNWRC := false
	for elemIdx, st := range t.AppendSchedule(nil, width) {
		for opIdx, op := range t.Elements[st.Element].Ops {
			switch op.Kind {
			case march.Write, march.WriteWeak:
				lastNWRC = false
			case march.WriteNWRC:
				lastNWRC = true
			case march.Read:
				sites = append(sites, readSite{
					elem: elemIdx, op: opIdx, bg: st.Background,
					inverted: op.Inverted, setupNWRC: lastNWRC,
				})
			}
		}
	}
	return sites
}

// Classify analyzes one memory's failure records against the test that
// produced them. Width is the controller's widest IO width (background
// basis). Classification assumes the memory did not wrap (it is the
// largest of its fleet, or was diagnosed alone); wrapped memories'
// late-pass expectations depend on wrap history and are reported as
// Intermittent when they confuse the counts — a documented limitation
// of logical-signature analysis.
func Classify(t march.Test, width int, mr bisd.MemoryResult) []CellDiagnosis {
	sites := schedule(t, width)
	type key struct{ elem, op int }
	siteBy := make(map[key]readSite, len(sites))
	for _, s := range sites {
		siteBy[key{s.elem, s.op}] = s
	}

	// Per cell: failing sites.
	failsByCell := make(map[fault.Cell][]readSite)
	for _, rec := range mr.Failures {
		s, ok := siteBy[key{rec.Element, rec.Op}]
		if !ok {
			continue
		}
		c := fault.Cell{Addr: rec.PhysicalAddr, Bit: rec.Bit}
		failsByCell[c] = append(failsByCell[c], s)
	}

	out := make([]CellDiagnosis, 0, len(mr.Located))
	for _, c := range mr.Located {
		fails := failsByCell[c]
		out = append(out, CellDiagnosis{
			Cell:    c,
			Verdict: classifyCell(sites, fails, c.Bit, width),
			Fails:   len(fails),
		})
	}
	return out
}

// expectedValue computes the data value a read site expects at a bit.
func expectedValue(s readSite, bit, width int) bool {
	bg := bitvec.Background(width, s.bg)
	b := bit
	if b >= width {
		b = width - 1
	}
	return bg.Get(b) != s.inverted // XOR
}

func classifyCell(all, fails []readSite, bit, width int) Verdict {
	if len(fails) == 0 {
		return Unknown
	}
	total1, total0 := 0, 0
	for _, s := range all {
		if expectedValue(s, bit, width) {
			total1++
		} else {
			total0++
		}
	}
	fail1, fail0, nwrcOnly := 0, 0, true
	var nwrcExpect bool
	for _, s := range fails {
		v := expectedValue(s, bit, width)
		if v {
			fail1++
		} else {
			fail0++
		}
		if !s.setupNWRC {
			nwrcOnly = false
		}
		nwrcExpect = v
	}
	switch {
	case fail1 == total1 && fail0 == 0 && total1 > 0:
		return AlwaysZero
	case fail0 == total0 && fail1 == 0 && total0 > 0:
		return AlwaysOne
	case nwrcOnly:
		if nwrcExpect {
			return RetentionOne
		}
		return RetentionZero
	default:
		return Intermittent
	}
}
