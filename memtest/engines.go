package memtest

import (
	"context"
	"fmt"

	"repro/internal/bisd"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/simulator"
	"repro/internal/sram"
)

func init() {
	mustRegister(proposedEngine{})
	mustRegister(baselineEngine{})
	mustRegister(singleDirEngine{})
	mustRegister(rawSimEngine{})
}

// DefaultTest returns the March test the proposed scheme runs for a
// given widest IO width: March CW, NWRTM-merged when DRF diagnosis is
// requested.
func DefaultTest(cMax int, includeDRF bool) MarchTest {
	t := march.MarchCW(cMax)
	if includeDRF {
		t = march.WithNWRTM(t)
	}
	return t
}

// BackgroundsFor reports how many data backgrounds the default test
// uses for a width c — ceil(log2 c) + 1.
func BackgroundsFor(c int) int { return bitvec.NumBackgrounds(c) }

// proposedEngine is the paper's SPC/PSC scheme with March CW and,
// optionally, the NWRTM merge for data-retention faults (Fig. 3).
type proposedEngine struct{}

func (proposedEngine) Name() string     { return "proposed" }
func (proposedEngine) Describe() string { return "proposed" }

func (proposedEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	test := opt.Test
	if test == nil {
		t := DefaultTest(f.WidestWidth(), opt.IncludeDRF)
		test = &t
	}
	return bisd.RunProposed(f.mems, *test, bisd.ProposedOptions{
		ClockNs:       opt.ClockNs,
		DeliveryOrder: opt.DeliveryOrder,
		Trace:         opt.Trace,
		Ctx:           ctx,
	})
}

// newBatchRunner packs up to sram.BankLanes devices of plan into
// bit-sliced MemoryBanks, one per plan memory (lane l = device l), and
// runs the March schedule once per batch through a bisd.BankRunner.
// Per-lane reports are byte-identical to the per-device path's (pinned
// by the fleet differential suite).
func (proposedEngine) newBatchRunner(plan Plan) batchRunner {
	pb := &proposedBatchRunner{
		r:     bisd.NewBankRunner(),
		plan:  plan,
		banks: make([]*sram.MemoryBank, len(plan.Memories)),
	}
	for i, m := range plan.Memories {
		pb.banks[i] = sram.NewMemoryBank(m.Words, m.Width)
	}
	return pb
}

type proposedBatchRunner struct {
	r     *bisd.BankRunner
	plan  Plan
	banks []*sram.MemoryBank
	// tests caches DefaultTest for the plan, index 1 with DRF.
	tests [2]*MarchTest
}

func (pb *proposedBatchRunner) load(lane int, truth [][]fault.Fault) error {
	if lane == 0 {
		for _, b := range pb.banks {
			b.Reset()
		}
	}
	for i, faults := range truth {
		ok, err := pb.banks[i].LoadLane(lane, faults)
		if err != nil {
			return err
		}
		if !ok {
			// Plans draw only bankable classes, so an SOF/ADOF/CDF here
			// is a fleet the batch path would diagnose wrongly.
			return fmt.Errorf("memtest: memory %q: %w", pb.plan.Memories[i].Name, sram.ErrUnbankable)
		}
	}
	return nil
}

func (pb *proposedBatchRunner) keep() { pb.r.Keep() }

func (pb *proposedBatchRunner) run(ctx context.Context, lanes int, opt EngineOptions) ([]*Report, error) {
	test := opt.Test
	if test == nil {
		k := 0
		if opt.IncludeDRF {
			k = 1
		}
		if pb.tests[k] == nil {
			t := DefaultTest(pb.plan.WidestWidth(), opt.IncludeDRF)
			pb.tests[k] = &t
		}
		test = pb.tests[k]
	}
	return pb.r.Run(pb.banks, lanes, *test, bisd.ProposedOptions{
		ClockNs:       opt.ClockNs,
		DeliveryOrder: opt.DeliveryOrder,
		Ctx:           ctx,
	})
}

// baselineEngine is the bi-directional serial scheme of [7,8] with its
// iterated M1 element and, optionally, delay-based DRF testing
// (Fig. 1).
type baselineEngine struct{}

func (baselineEngine) Name() string     { return "baseline" }
func (baselineEngine) Describe() string { return "baseline-[7,8]" }

func (baselineEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	analytic := false
	for _, m := range f.mems {
		if m.N()*m.C() > AnalyticThresholdCells {
			analytic = true
		}
	}
	return bisd.RunBaseline(f.mems, bisd.BaselineOptions{
		ClockNs:  opt.ClockNs,
		WithDRF:  opt.IncludeDRF,
		Analytic: analytic,
		Ctx:      ctx,
	})
}

// singleDirEngine is the single-directional serial interface of [9,10],
// kept for the fault-masking comparison.
type singleDirEngine struct{}

func (singleDirEngine) Name() string     { return "singledir" }
func (singleDirEngine) Describe() string { return "single-dir-[9,10]" }

func (singleDirEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return bisd.RunSingleDirectional(f.mems, opt.ClockNs)
}

// rawSimEngine executes the March test word-wide on each memory through
// the RAMSES-style fault simulator, with no interface or controller
// modeling — the ideal-coverage reference the proposed scheme is
// equivalent to (its SPC/PSC plumbing is transparent). Each memory runs
// its own un-wrapped address space; cycle accounting charges one cycle
// per operation on the largest memory, as a lower bound.
type rawSimEngine struct{}

func (rawSimEngine) Name() string     { return "rawsim" }
func (rawSimEngine) Describe() string { return "raw simulator (ideal word-wide)" }

func (rawSimEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	rep := &Report{Scheme: "raw simulator (ideal word-wide)", ClockNs: opt.ClockNs}
	nMax := 0
	for i := range f.mems {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m := f.mems[i]
		test := opt.Test
		if test == nil {
			t := DefaultTest(m.C(), opt.IncludeDRF)
			test = &t
		}
		res := simulator.Run(m, *test)
		mr := MemoryReport{Index: i, Words: m.N(), Width: m.C(), Located: res.Located}
		for _, fl := range res.Failures {
			// The simulator records word-level miscompares; expand each
			// into one record per failing bit so scan-out and off-line
			// classification see true bit positions.
			fl.Got.ForEachDiff(fl.Expected, func(bit int) {
				mr.Failures = append(mr.Failures, FailureRecord{
					Memory: i, LogicalAddr: fl.Addr, PhysicalAddr: fl.Addr, Bit: bit,
					Element: fl.Element, Background: fl.Background, Op: fl.Op,
				})
			})
		}
		rep.Memories = append(rep.Memories, mr)
		if res.RetentionMs*1e6 > rep.RetentionNs {
			rep.RetentionNs = res.RetentionMs * 1e6
		}
		if m.N() > nMax {
			nMax = m.N()
		}
	}
	if len(f.mems) > 0 {
		test := opt.Test
		if test == nil {
			t := DefaultTest(f.WidestWidth(), opt.IncludeDRF)
			test = &t
		}
		ops := 0
		for _, st := range test.AppendSchedule(nil, f.WidestWidth()) {
			ops += len(test.Elements[st.Element].Ops)
		}
		rep.Cycles = int64(ops * nMax)
	}
	return rep, nil
}
