// Package repro_test is the benchmark harness: one benchmark per table,
// figure and equation of the paper's evaluation (see DESIGN.md's
// experiment index E1-E12 and EXPERIMENTS.md for paper-vs-measured).
// Each benchmark prints its paper-style rows once and reports the
// headline quantity as a benchmark metric.
//
// Run with: go test -bench=. -benchmem
package repro_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"repro/internal/area"
	"repro/internal/bisd"
	"repro/internal/bitvec"
	"repro/internal/cell"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/report"
	"repro/internal/serial"
	"repro/internal/simulator"
	"repro/internal/sram"
	"repro/internal/timing"
	"repro/memtest"
	"repro/service"
	"repro/service/client"
)

var onceTables sync.Map

// printOnce renders a table a single time across all benchmark
// iterations and -cpu counts.
func printOnce(key string, f func()) {
	once, _ := onceTables.LoadOrStore(key, &sync.Once{})
	once.(*sync.Once).Do(f)
}

// --- E1 / Fig. 2: bi-directional serial interface ---

// BenchmarkFig2BiDirInterface measures one bi-directional serialized
// March element on a faulty memory and demonstrates the <=1 fault per
// element per direction property against the single-directional
// interface's masking.
func BenchmarkFig2BiDirInterface(b *testing.B) {
	printOnce("fig2", func() {
		m := sram.New(16, 4)
		must(b, m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 2, Bit: 1}}))
		must(b, m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 9, Bit: 0}}))
		must(b, m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 14, Bit: 3}}))
		ch := serial.NewChain(m)
		lo, hi, _, _ := ch.BiDirElement(func(int) bool { return true })
		tb := report.NewTable("E1/Fig.2: serial interfaces on a 3-fault memory",
			"interface", "identified per element", "positions")
		tb.AddRowf("bi-directional [7,8]|2 (one per direction)|%d and %d", lo, hi)
		single := sram.New(16, 4)
		must(b, single.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 2, Bit: 1}}))
		must(b, single.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 9, Bit: 0}}))
		pos, _ := serial.NewChain(single).SingleDirElement(func(int) bool { return true })
		tb.AddRowf("single-directional [9,10]|masked|first mismatch at %d (not a defect)", pos)
		render(tb)
	})
	for i := 0; i < b.N; i++ {
		m := sram.New(16, 4)
		_ = m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 2, Bit: 1}})
		ch := serial.NewChain(m)
		ch.BiDirElement(func(int) bool { return true })
	}
}

// --- E2 / Fig. 3: proposed architecture end to end ---

func BenchmarkFig3ProposedScheme(b *testing.B) {
	soc := memtest.HeterogeneousExample()
	printOnce("fig3", func() {
		res, err := memtest.Diagnose(context.Background(), soc, memtest.WithDRF())
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("E2/Fig.3: proposed scheme on the heterogeneous fleet",
			"memory", "geometry", "located/detectable", "false+")
		for _, md := range res.Memories {
			tb.AddRowf("%s|%dx%d|%d/%d|%d", md.Name, md.Words, md.Width,
				md.TruthLocated, md.Detectable, md.FalsePositives)
		}
		render(tb)
	})
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, err := memtest.Diagnose(context.Background(), soc, memtest.WithDRF())
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Report.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
}

// --- E3 / Fig. 4: SPC delivery order ---

func BenchmarkFig4SPCDelivery(b *testing.B) {
	dp := bitvec.MustParse("1011")
	printOnce("fig4", func() {
		tb := report.NewTable("E3/Fig.4: SPC delivery of DP[3:0]=1011 (c=4, c'=3)",
			"delivery order", "narrow SPC holds", "expected DP[2:0]", "correct")
		for _, order := range []serial.Order{serial.MSBFirst, serial.LSBFirst} {
			s := serial.NewSPC(3)
			s.Deliver(dp, order)
			tb.AddRowf("%s|%s|%s|%v", order, s.Word(), dp.Truncate(3), s.Word().Equal(dp.Truncate(3)))
		}
		render(tb)
	})
	s := serial.NewSPC(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Deliver(dp, serial.MSBFirst)
	}
}

// --- E4 / Fig. 5: PSC capture and shift ---

func BenchmarkFig5PSC(b *testing.B) {
	word := bitvec.FromUint64(32, 0xDEADBEEF)
	p := serial.NewPSC(32)
	printOnce("fig5", func() {
		p.Capture(word)
		got := p.Drain()
		fmt.Printf("E4/Fig.5: PSC capture+drain of %s -> %s (scan_en toggled, LSB first)\n\n",
			word, got)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Capture(word)
		for j := 0; j < 32; j++ {
			p.ShiftOut()
		}
	}
}

// --- E5 / Fig. 6: NWRC cell behaviour ---

func BenchmarkFig6NWRC(b *testing.B) {
	printOnce("fig6", func() {
		tb := report.NewTable("E5/Fig.6: NWRC write-1 behaviour (electrical model)",
			"cell", "reads after NWRC w1", "verdict")
		good := cell.New()
		good.WriteNWRC(true)
		tb.AddRowf("good 6T|%v|flips (pass)", good.Read())
		bad := cell.NewWithOpen(cell.PullUpA)
		bad.Write(false)
		bad.WriteNWRC(true)
		tb.AddRowf("open pull-up PMOS|%v|cannot flip (DRF detected)", bad.Read())
		render(tb)
	})
	for i := 0; i < b.N; i++ {
		c := cell.NewWithOpen(cell.PullUpA)
		c.Write(false)
		c.WriteNWRC(true)
		if c.Read() {
			b.Fatal("DRF cell flipped")
		}
	}
}

// --- E6 / Sec. 4.1: coverage table ---

func BenchmarkTableCoverage(b *testing.B) {
	classes := append(append([]fault.Class{}, fault.PaperDefectClasses()...),
		fault.SOF, fault.ADOF, fault.CDF, fault.DRF)
	printOnce("coverage", func() {
		baseline := simulator.Coverage(32, 8, march.MarchCW(8), classes, 60, 7)
		merged := simulator.Coverage(32, 8, march.WithNWRTM(march.MarchCW(8)), classes, 60, 7)
		tb := report.NewTable("E6/Sec.4.1: detection coverage, March CW (both schemes) vs + NWRTM (proposed only)",
			"fault class", "March CW", "March CW + NWRTM")
		for i := range baseline {
			tb.AddRow(baseline[i].Class.String(),
				report.Pct(baseline[i].DetectionRate()), report.Pct(merged[i].DetectionRate()))
		}
		render(tb)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulator.Coverage(32, 8, march.WithNWRTM(march.MarchCW(8)), []fault.Class{fault.DRF}, 10, int64(i))
	}
}

// --- E7 / Eq. 1: baseline time ---

func BenchmarkEq1BaselineTime(b *testing.B) {
	soc := memtest.Benchmark16()
	printOnce("eq1", func() {
		res, err := memtest.Diagnose(context.Background(), soc, memtest.WithScheme("baseline"))
		if err != nil {
			b.Fatal(err)
		}
		k := res.Report.Iterations
		analytic := timing.BaselineNs(timing.Params{N: 512, C: 100, ClockNs: 10, K: k})
		tb := report.NewTable("E7/Eq.1: T[7,8] = (17k+9)nct on the benchmark e-SRAM",
			"k", "engine cycles", "engine time", "Eq.(1) time", "agree")
		tb.AddRowf("%d|%d|%s|%s|%v", k, res.Report.Cycles,
			report.Ns(res.TimeNs()), report.Ns(analytic), res.TimeNs() == analytic)
		render(tb)
	})
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := memtest.Diagnose(context.Background(), soc, memtest.WithScheme("baseline"))
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Report.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles/run")
}

// --- E8 / Eq. 2: proposed time, cycle-accurate engine vs formula ---

func BenchmarkEq2ProposedTime(b *testing.B) {
	printOnce("eq2", func() {
		mems := []*sram.Memory{sram.New(512, 100)}
		rep, err := bisd.RunProposed(mems, march.MarchCW(100), bisd.ProposedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		want := timing.ProposedCycles(512, 100)
		tb := report.NewTable("E8/Eq.2: T_proposed on the benchmark e-SRAM",
			"engine cycles", "Eq.(2) cycles", "time @10ns", "agree")
		tb.AddRowf("%d|%d|%s|%v", rep.Cycles, want, report.Ns(rep.TimeNs()), rep.Cycles == want)
		render(tb)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mems := []*sram.Memory{sram.New(512, 100)}
		if _, err := bisd.RunProposed(mems, march.MarchCW(100), bisd.ProposedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9 / Eq. 3: reduction factor sweep ---

func BenchmarkEq3Reduction(b *testing.B) {
	printOnce("eq3", func() {
		tb := report.NewTable("E9/Eq.3: R without DRF diagnosis (n=512, c=100, t=10ns)",
			"k", "R")
		for _, k := range []int{8, 16, 32, 64, 96, 128, 192, 256} {
			p := timing.Params{N: 512, C: 100, ClockNs: 10, K: k}
			tb.AddRowf("%d|%.1f", k, timing.ReductionNoDRF(p))
		}
		render(tb)
		fmt.Println("paper: R >= 84 at the case-study point k=96")
		fmt.Println()
	})
	p := timing.Params{N: 512, C: 100, ClockNs: 10, K: 96}
	var r float64
	for i := 0; i < b.N; i++ {
		r = timing.ReductionNoDRF(p)
	}
	b.ReportMetric(r, "R@k=96")
}

// --- E10 / Eq. 4: reduction with DRF diagnosis ---

func BenchmarkEq4ReductionDRF(b *testing.B) {
	printOnce("eq4", func() {
		tb := report.NewTable("E10/Eq.4: R with DRF diagnosis (baseline pays 8k units + 200 ms)",
			"k", "T[7,8]+DRF", "T_prop+NWRTM", "R")
		for _, k := range []int{32, 64, 96, 128} {
			p := timing.Params{N: 512, C: 100, ClockNs: 10, K: k}
			tb.AddRowf("%d|%s|%s|%.1f", k,
				report.Ns(timing.BaselineWithDRFNs(p)),
				report.Ns(timing.ProposedWithDRFNs(p)),
				timing.ReductionWithDRF(p))
		}
		render(tb)
		fmt.Println("paper: R >= 145 at the case-study point (our exact arithmetic: 143.4)")
		fmt.Println()
	})
	p := timing.Params{N: 512, C: 100, ClockNs: 10, K: 96}
	var r float64
	for i := 0; i < b.N; i++ {
		r = timing.ReductionWithDRF(p)
	}
	b.ReportMetric(r, "R@k=96")
}

// --- E11 / Sec. 4.2 case study: full benchmark fleet, both engines ---

func BenchmarkCaseStudy(b *testing.B) {
	soc := memtest.Benchmark16()
	printOnce("casestudy", func() {
		cmp, err := memtest.Compare(context.Background(), soc, true)
		if err != nil {
			b.Fatal(err)
		}
		cs := timing.PaperCaseStudy()
		tb := report.NewTable("E11/Sec.4.2: case study on the benchmark e-SRAM (256 faults, with DRF phase)",
			"quantity", "paper", "measured")
		tb.AddRowf("k (M1 iterations)|%d|%d", cs.K(), cmp.Baseline.Report.Iterations)
		tb.AddRowf("T baseline|~1.43 s|%s", report.Ns(cmp.Baseline.TimeNs()))
		tb.AddRowf("T proposed|~10 ms|%s", report.Ns(cmp.Proposed.TimeNs()))
		tb.AddRowf("R with DRF|>=145 (exact 143.4)|%.1f", cmp.MeasuredReduction)
		noDRF, err := memtest.Compare(context.Background(), soc, false)
		if err != nil {
			b.Fatal(err)
		}
		tb.AddRowf("R without DRF|>=84|%.1f", noDRF.MeasuredReduction)
		render(tb)
	})
	var r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := memtest.Compare(context.Background(), soc, true)
		if err != nil {
			b.Fatal(err)
		}
		r = cmp.MeasuredReduction
	}
	b.ReportMetric(r, "R")
}

// --- E12 / Sec. 4.3: area table ---

func BenchmarkTableArea(b *testing.B) {
	printOnce("area", func() {
		tb := report.NewTable("E12/Sec.4.3: area model on the benchmark e-SRAM (512x100)",
			"quantity", "paper", "measured")
		tb.AddRowf("extra per bit vs [7,8]|3 cells|%.0f cells", area.ExtraPerBitCells())
		tb.AddRowf("combined overhead|~1.8%%|%s", report.Pct(area.CombinedOverheadFraction(512, 100)))
		tb.AddRowf("extra global wires|1 (scan_en)|%d",
			area.ProposedWires(false).Total()-area.BaselineWires().Total())
		render(tb)
	})
	var f float64
	for i := 0; i < b.N; i++ {
		f = area.CombinedOverheadFraction(512, 100)
	}
	b.ReportMetric(100*f, "pct")
}

// --- E13: defect-rate series (the scheme's headline property) ---

// BenchmarkSeriesDefectRate sweeps the defect rate on the benchmark
// geometry: the baseline's time grows linearly with the fault count
// (k = ceil(m1/2) iterations), while the proposed scheme's single-pass
// time is constant — "defect rate dependent diagnosis" eliminated.
func BenchmarkSeriesDefectRate(b *testing.B) {
	printOnce("series-rate", func() {
		tb := report.NewTable("E13: diagnosis time vs defect rate (n=512, c=100, t=10ns, with DRF phase)",
			"defect rate", "faults", "k", "T baseline", "T proposed", "R")
		for _, rate := range []float64{0.0005, 0.001, 0.0025, 0.005, 0.01} {
			soc := memtest.Benchmark16()
			soc.Memories[0].DefectRate = rate
			cmp, err := memtest.Compare(context.Background(), soc, true)
			if err != nil {
				b.Fatal(err)
			}
			faults := int(float64(512*100) * rate)
			tb.AddRowf("%.2f%%|%d|%d|%s|%s|%.1f", 100*rate, faults,
				cmp.Baseline.Report.Iterations,
				report.Ns(cmp.Baseline.TimeNs()), report.Ns(cmp.Proposed.TimeNs()),
				cmp.MeasuredReduction)
		}
		render(tb)
	})
	soc := memtest.Benchmark16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := memtest.Diagnose(context.Background(), soc, memtest.WithScheme("baseline"), memtest.WithDRF()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeriesGeometry sweeps memory geometry: Eq. (2)'s time is
// dominated by the n·c product through the PSC shift-out term.
func BenchmarkSeriesGeometry(b *testing.B) {
	printOnce("series-geom", func() {
		tb := report.NewTable("E14: proposed-scheme time vs geometry (Eq. 2, t=10ns)",
			"n", "c", "cycles", "time")
		for _, g := range []struct{ n, c int }{
			{128, 16}, {256, 32}, {512, 50}, {512, 100}, {1024, 100}, {2048, 128},
		} {
			cyc := timing.ProposedCycles(g.n, g.c)
			tb.AddRowf("%d|%d|%d|%s", g.n, g.c, cyc, report.Ns(float64(cyc)*10))
		}
		render(tb)
	})
	for i := 0; i < b.N; i++ {
		timing.ProposedCycles(512, 100)
	}
}

// --- Ablations: design choices DESIGN.md calls out ---

// BenchmarkAblationNWRTMCost: the NWRTM merge must cost exactly
// (2n+2c) cycles — the design's "no retention pause" claim priced.
func BenchmarkAblationNWRTMCost(b *testing.B) {
	n, c := 512, 100
	printOnce("abl-nwrtm", func() {
		base, err := bisd.RunProposed([]*sram.Memory{sram.New(n, c)}, march.MarchCW(c), bisd.ProposedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		merged, err := bisd.RunProposed([]*sram.Memory{sram.New(n, c)}, march.WithNWRTM(march.MarchCW(c)), bisd.ProposedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fmt.Printf("Ablation: NWRTM merge costs %d cycles (2n+2c = %d) on top of %d — %.3f%%, vs 200 ms of pauses for delay testing\n\n",
			merged.Cycles-base.Cycles, 2*n+2*c, base.Cycles,
			100*float64(merged.Cycles-base.Cycles)/float64(base.Cycles))
	})
	test := march.WithNWRTM(march.MarchCW(c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bisd.RunProposed([]*sram.Memory{sram.New(n, c)}, test, bisd.ProposedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBackgrounds: March C- vs March CW — what the
// multi-background extension buys (intra-word coverage) and costs.
func BenchmarkAblationBackgrounds(b *testing.B) {
	printOnce("abl-bg", func() {
		intra := func(t march.Test) float64 {
			detected, total := 0, 0
			for bit := 1; bit < 8; bit++ {
				for _, val := range []bool{false, true} {
					for _, dir := range []fault.Dir{fault.Up, fault.Down} {
						m := sram.New(16, 8)
						must(b, m.Inject(fault.Fault{Class: fault.CFid, Dir: dir, Value: val,
							Aggressor: fault.Cell{Addr: 5, Bit: 0}, Victim: fault.Cell{Addr: 5, Bit: bit}}))
						if simulator.Run(m, t).Detected() {
							detected++
						}
						total++
					}
				}
			}
			return float64(detected) / float64(total)
		}
		tb := report.NewTable("Ablation: multi-background extension (intra-word CFid, agg/vic in one word)",
			"algorithm", "cycles (n=512,c=100)", "intra-word CFid detection")
		for _, tc := range []march.Test{march.MarchCMinus(), march.MarchCW(8)} {
			rep, err := bisd.RunProposed([]*sram.Memory{sram.New(512, 100)},
				adjustWidth(tc, 100), bisd.ProposedOptions{})
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRowf("%s|%d|%s", tc.Name, rep.Cycles, report.Pct(intra(tc)))
		}
		render(tb)
	})
	for i := 0; i < b.N; i++ {
		m := sram.New(16, 8)
		_ = m.Inject(fault.Fault{Class: fault.CFid, Dir: fault.Up, Value: true,
			Aggressor: fault.Cell{Addr: 5, Bit: 0}, Victim: fault.Cell{Addr: 5, Bit: 3}})
		simulator.Run(m, march.MarchCW(8))
	}
}

// adjustWidth re-instantiates a named test at the benchmark width so
// cycle counts are comparable.
func adjustWidth(t march.Test, c int) march.Test {
	if t.Name == "March CW" {
		return march.MarchCW(c)
	}
	return t
}

// BenchmarkAblationDFTTechniques compares the three DRF detection
// techniques the paper discusses in Sec. 3.4 on equal terms: NWRTM
// (mergeable, 2n+2c), WWTM [14,15] (dedicated tail, 6n+5c) and the
// conventional delay method (2 x 100 ms pauses). All three reach 100 %
// DRF detection; NWRTM is the cheapest — "the best in terms of test
// time for DRFs among all existing DFT techniques".
func BenchmarkAblationDFTTechniques(b *testing.B) {
	n, c := 512, 100
	printOnce("abl-dft", func() {
		base, err := bisd.RunProposed([]*sram.Memory{sram.New(n, c)}, march.MarchCW(c), bisd.ProposedOptions{})
		if err != nil {
			b.Fatal(err)
		}
		tb := report.NewTable("Ablation: DRF DFT techniques on the benchmark geometry",
			"technique", "extra cycles", "extra pauses", "total extra time")
		for _, tc := range []struct {
			name string
			test march.Test
		}{
			{"NWRTM (merged)", march.WithNWRTM(march.MarchCW(c))},
			{"WWTM (dedicated tail)", march.WithWWTM(march.MarchCW(c))},
		} {
			rep, err := bisd.RunProposed([]*sram.Memory{sram.New(n, c)}, tc.test, bisd.ProposedOptions{})
			if err != nil {
				b.Fatal(err)
			}
			extra := rep.Cycles - base.Cycles
			tb.AddRowf("%s|%d|0|%s", tc.name, extra, report.Ns(float64(extra)*10))
		}
		tb.AddRowf("delay method|~0|2 x 100 ms|%s", report.Ns(2e8))
		render(tb)
	})
	test := march.WithNWRTM(march.MarchCW(c))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := sram.New(n, c)
		if _, err := bisd.RunProposed([]*sram.Memory{m}, test, bisd.ProposedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDeliveryOrder: MSB-first vs LSB-first delivery on a
// heterogeneous fleet — correctness, not speed, is the difference.
func BenchmarkAblationDeliveryOrder(b *testing.B) {
	mk := func() []*sram.Memory { return []*sram.Memory{sram.New(32, 8), sram.New(32, 5)} }
	printOnce("abl-order", func() {
		tb := report.NewTable("Ablation: background delivery order (clean heterogeneous fleet)",
			"order", "false miscompares")
		for _, order := range []serial.Order{serial.MSBFirst, serial.LSBFirst} {
			rep, err := bisd.RunProposed(mk(), march.MarchCW(8), bisd.ProposedOptions{DeliveryOrder: order})
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRowf("%s|%d", order, rep.TotalLocated())
		}
		render(tb)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bisd.RunProposed(mk(), march.MarchCW(8), bisd.ProposedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Engine benchmarks: the fault-simulation hot path ---

// BenchmarkCoverageSweep measures the coverage-sweep engine itself —
// the workload behind every Sec. 4.1 table. One iteration simulates
// `samples` random single faults per class on the E6 geometry. Runs
// at every -cpu count exercise the worker pool; the single-proc run
// tracks the serial-path speedup.
func BenchmarkCoverageSweep(b *testing.B) {
	classes := append(append([]fault.Class{}, fault.PaperDefectClasses()...),
		fault.SOF, fault.ADOF, fault.CDF, fault.DRF)
	test := march.WithNWRTM(march.MarchCW(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulator.Coverage(32, 8, test, classes, 60, 7)
	}
}

// BenchmarkRunLargeMemory measures a single March CW + NWRTM run on the
// paper's 512x100 benchmark geometry through a reusable Runner — the
// per-sample inner loop of the sweep, which must not allocate in the
// steady state.
func BenchmarkRunLargeMemory(b *testing.B) {
	test := march.WithNWRTM(march.MarchCW(100))
	m := sram.New(512, 100)
	must(b, m.Inject(fault.Fault{Class: fault.SA0, Victim: fault.Cell{Addr: 137, Bit: 42}}))
	runner := simulator.NewRunner(512, 100, test)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runner.Run(m)
		if !res.Detected() {
			b.Fatal("SA0 escaped")
		}
	}
}

// BenchmarkFleetThroughput measures RunFleet end to end — fleet build,
// proposed-scheme diagnosis, truth evaluation and ordered streaming —
// in devices per second. One op is one device; run with -cpu 1,4 to
// see the worker pool scale (each worker owns a reusable engine
// runner, so throughput tracks cores, not allocator pressure).
func BenchmarkFleetThroughput(b *testing.B) {
	benchFleetThroughput(b, memtest.HeterogeneousExample())
}

// BenchmarkFleetThroughputPaper16 is BenchmarkFleetThroughput at the
// paper's scale: the 512x100 benchmark e-SRAM with 256 faults plus
// DRFs, where a device fails hundreds of cells and the bank pass
// dominates.
func BenchmarkFleetThroughputPaper16(b *testing.B) {
	benchFleetThroughput(b, memtest.Benchmark16())
}

func benchFleetThroughput(b *testing.B, plan memtest.Plan) {
	s, err := memtest.New(plan, memtest.WithSeed(7), memtest.WithDRF())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for _, err := range s.RunFleet(context.Background(), b.N) {
		if err != nil {
			b.Fatal(err)
		}
		n++
	}
	if n != b.N {
		b.Fatalf("yielded %d of %d devices", n, b.N)
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "devices/sec")
}

// BenchmarkServiceStream measures memtestd's submit-to-drained wall
// time through the manager: one op is one job of `streamDevices`
// devices, spooled through the store (pooled encode buffer, batched
// appends) and followed to completion by one reader.
func BenchmarkServiceStream(b *testing.B) {
	const streamDevices = 8
	m, err := service.NewManager(service.Config{Jobs: 1, Queue: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	req := service.JobRequest{Plan: memtest.HeterogeneousExample(), Devices: streamDevices, Seed: 7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		lines := 0
		jobErr, err := m.Follow(context.Background(), st.ID, 0, func([]byte) error {
			lines++
			return nil
		})
		if err != nil || jobErr != "" {
			b.Fatalf("follow: %v / %q", err, jobErr)
		}
		if lines != streamDevices {
			b.Fatalf("streamed %d lines, want %d", lines, streamDevices)
		}
	}
	b.ReportMetric(float64(streamDevices)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
}

// BenchmarkServiceStreamBatch is BenchmarkServiceStream at fleet
// scale: one op is one 4,096-device hetero job (64 full bank batches)
// through the manager — the fleet workers diagnose and encode, the run
// loop spools — followed to the end by one reader. Unlike the 8-device
// job above, which times per-job overhead, it times the streaming
// path, and its allocs/op divided by 4,096 is the served path's
// allocations per device.
func BenchmarkServiceStreamBatch(b *testing.B) {
	const streamDevices = 4096
	m, err := service.NewManager(service.Config{Jobs: 1, Queue: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	req := service.JobRequest{Plan: memtest.HeterogeneousExample(), Devices: streamDevices, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		lines := 0
		jobErr, err := m.Follow(context.Background(), st.ID, 0, func([]byte) error {
			lines++
			return nil
		})
		if err != nil || jobErr != "" {
			b.Fatalf("follow: %v / %q", err, jobErr)
		}
		if lines != streamDevices {
			b.Fatalf("streamed %d lines, want %d", lines, streamDevices)
		}
	}
	b.ReportMetric(float64(streamDevices)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
}

// BenchmarkServiceStreamHTTP is BenchmarkServiceStreamBatch across
// HTTP: one op is one 4,096-device hetero job submitted to a memtestd
// on an httptest server and read to its end through the Go client —
// decoded into DeviceResults by client.Results, or validated and
// passed through as raw lines by client.RawResults, as memtest-coord
// reads its workers. Its allocs/op count both ends of the connection,
// so divided by 4,096 they are the served path's allocations per
// device. Finished jobs beyond the last are evicted, so the memory
// store holds at most two.
func BenchmarkServiceStreamHTTP(b *testing.B) {
	const streamDevices = 4096
	m, err := service.NewManager(service.Config{Jobs: 1, Queue: 2, RetainJobs: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(service.NewServer(m))
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())
	req := service.JobRequest{Plan: memtest.HeterogeneousExample(), Devices: streamDevices, Seed: 7}
	for _, bc := range []struct {
		name   string
		stream func(ctx context.Context, id string) (int, error)
	}{
		{"Results", func(ctx context.Context, id string) (int, error) {
			n := 0
			for _, err := range c.Results(ctx, id) {
				if err != nil {
					return n, err
				}
				n++
			}
			return n, nil
		}},
		{"RawResults", func(ctx context.Context, id string) (int, error) {
			n := 0
			for _, err := range c.RawResults(ctx, id) {
				if err != nil {
					return n, err
				}
				n++
			}
			return n, nil
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.Submit(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				n, err := bc.stream(ctx, st.ID)
				if err != nil {
					b.Fatal(err)
				}
				if n != streamDevices {
					b.Fatalf("streamed %d lines, want %d", n, streamDevices)
				}
			}
			b.ReportMetric(float64(streamDevices)*float64(b.N)/b.Elapsed().Seconds(), "devices/sec")
		})
	}
}

// BenchmarkProposedRunnerReuse is the steady-state form of E8: one
// reusable runner diagnosing the paper's 512x100 geometry over and
// over, as a fleet worker does. The allocs/op this reports are the
// per-run fixed cost (report + located-set assembly); the per-element
// loop itself is allocation-free, pinned exactly by
// TestProposedRunnerElementLoopAllocFree in internal/bisd.
func BenchmarkProposedRunnerReuse(b *testing.B) {
	runner := bisd.NewProposedRunner()
	test := march.MarchCW(100)
	mems := []*sram.Memory{sram.New(512, 100)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runner.Run(mems, test, bisd.ProposedOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func render(tb *report.Table) {
	if err := tb.Render(os.Stdout); err != nil {
		panic(err)
	}
	fmt.Println()
}

func must(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}
