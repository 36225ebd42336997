package memtest_test

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/memtest"
)

// TestDeviceObserverCoverage: the observer fires exactly once per
// device with the device's index, at any worker count.
func TestDeviceObserverCoverage(t *testing.T) {
	const devices = 12
	var seen [devices]atomic.Int64
	s, err := memtest.New(memtest.HeterogeneousExample(),
		memtest.WithSeed(7),
		memtest.WithWorkers(3),
		memtest.WithDeviceObserver(func(d int) { seen[d].Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range s.RunFleet(context.Background(), devices) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != devices {
		t.Fatalf("yielded %d devices, want %d", n, devices)
	}
	for d := range seen {
		if got := seen[d].Load(); got != 1 {
			t.Errorf("device %d observed %d times, want 1", d, got)
		}
	}
}

// TestObservedFleetLoopAllocFree is the PR 8 companion to the PR 5
// hot-path pins: instrumenting the fleet worker loop with the obs
// counters memtestd installs (an atomic counter and a rolling meter)
// must add zero allocations per device — the run with the observer may
// not allocate more than the identical run without it.
func TestObservedFleetLoopAllocFree(t *testing.T) {
	const devices = 8
	// Both sessions run a plan of their own, so they share fleet workers
	// only with each other: a pooled worker grown by another test's
	// larger streams allocates less, and whichever side drew it would
	// win the comparison.
	plan := memtest.HeterogeneousExample()
	plan.Name = "observed-fleet-loop"
	build := func(opts ...memtest.Option) *memtest.Session {
		base := []memtest.Option{
			memtest.WithSeed(7),
			memtest.WithWorkers(1), // one worker: deterministic alloc counts
			memtest.WithDRF(),
		}
		s, err := memtest.New(plan, append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(s *memtest.Session) func() {
		return func() {
			for _, err := range s.RunFleet(context.Background(), devices) {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	plain := build()
	reg := obs.NewRegistry()
	counter := reg.Counter("devices_diagnosed_total", "Devices diagnosed.")
	var meter obs.Meter
	observed := build(memtest.WithDeviceObserver(func(int) {
		counter.Inc()
		meter.Add(1)
	}))

	// Warm both sessions so one-time lazy setup is off the books. The
	// fleet workers come from a pool that drops a worker left idle
	// through two collections, so a run can start on cold workers:
	// compare the least of ten runs on each side.
	run(plain)()
	run(observed)()
	least := func(f func()) float64 {
		m := math.Inf(1)
		for range 10 {
			m = min(m, testing.AllocsPerRun(1, f))
		}
		return m
	}
	base := least(run(plain))
	instr := least(run(observed))
	if instr > base {
		t.Errorf("observer added allocations: %.1f allocs/run instrumented vs %.1f plain", instr, base)
	}
	if counter.Value() == 0 {
		t.Fatalf("observer never fired")
	}
}
