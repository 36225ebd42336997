package memtest_test

import (
	"context"
	"fmt"
	"log"

	"repro/memtest"
)

// ExampleDiagnose shows the smallest end-to-end use of the library:
// describe a fleet, run the proposed scheme with NWRTM, and read the
// per-memory outcome.
func ExampleDiagnose() {
	plan := memtest.Plan{
		Name:    "doc",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "buf", Words: 32, Width: 8, DRFCount: 1, Seed: 12},
		},
	}
	res, err := memtest.Diagnose(context.Background(), plan, memtest.WithDRF())
	if err != nil {
		log.Fatal(err)
	}
	md := res.Memories[0]
	fmt.Printf("%s: located %d/%d faults, %d false positives, retention pauses %.0f ms\n",
		md.Name, md.TruthLocated, md.Detectable, md.FalsePositives,
		res.Report.RetentionNs/1e6)
	// Output:
	// buf: located 1/1 faults, 0 false positives, retention pauses 0 ms
}

// ExampleSession_Run streams per-memory diagnoses through the iterator
// instead of materializing the fleet result.
func ExampleSession_Run() {
	s, err := memtest.New(memtest.HeterogeneousExample(), memtest.WithDRF())
	if err != nil {
		log.Fatal(err)
	}
	for d, err := range s.Run(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d/%d\n", d.Name, d.TruthLocated, d.Detectable)
	}
	// Output:
	// pktbuf: 5/5
	// hdrfifo: 3/3
	// statsq: 5/5
	// dmadesc: 1/1
}

// ExampleCompare reproduces the paper's central comparison on a small
// fleet: the proposed scheme against the [7,8] baseline.
func ExampleCompare() {
	plan := memtest.Plan{
		Name:    "doc-cmp",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "m", Words: 16, Width: 4, DefectRate: 0.05, Seed: 3},
		},
	}
	cmp, err := memtest.Compare(context.Background(), plan, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline iterated its M1 element %d times; reduction factor > 1: %v\n",
		cmp.Baseline.Report.Iterations, cmp.MeasuredReduction > 1)
	// Output:
	// baseline iterated its M1 element 2 times; reduction factor > 1: true
}
