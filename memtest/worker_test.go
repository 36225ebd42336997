package memtest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/march"
)

// This file pins the fleet workers' life past their stream: a worker
// goes back to a package pool when its stream or single run ends and
// the next stream of an equal plan and the same engine value starts on
// it, with its builder, batch runner, banks, truth arena and Result
// arena as the last stream left them.

// TestPooledWorkersByteIdentical alternates AppendFleetRange and
// RunFleetRange streams in one process over three plans, four option
// sets that drive the bank differently (DRF on and off, the LSB-first
// delivery hazard, a weak-write March override) and one and two
// workers, on ranges that straddle a batch. Consecutive streams of a
// plan run on the workers the last one returned, under other options;
// a change of plan leaves them idle, and each plan and worker count
// starts with a stream cancelled under its workers. Every stream must equal
// the per-device reference, whose path keeps no bank state at all.
// Only the small diff plan runs the last two option sets: on hetero
// they made this test a minute long under the race detector, and at
// paper scale the process ran out of memory.
func TestPooledWorkersByteIdentical(t *testing.T) {
	plans := []struct {
		plan    Plan
		lo, hi  int
		optSets int // how many of optSets the plan runs
	}{
		{HeterogeneousExample(), 37, 140, 2},
		{diffPlan(), 60, 130, 4},
		{Benchmark16(), 60, 130, 2},
	}
	optSets := []struct {
		name string
		opts []Option
	}{
		{"drf", []Option{WithDRF()}},
		{"no_drf", nil},
		{"lsb", []Option{WithDRF(), WithDeliveryOrder(LSBFirst)}},
		{"wwtm", []Option{WithDRF(), WithMarchTest(march.WithWWTM(march.MarchCW(12)))}},
	}
	session := func(p Plan, i, j, workers int) *Session {
		opts := append([]Option{WithSeed(int64(10*i + j)), WithWorkers(workers)}, optSets[j].opts...)
		s, err := New(p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i, p := range plans {
		t.Run(p.plan.Name, func(t *testing.T) {
			want := make([][]string, p.optSets)
			for j := range want {
				ref := session(p.plan, i, j, 2)
				ref.noBatch = true
				want[j] = collectRange(t, ref, p.lo, p.hi)
			}
			for _, workers := range []int{1, 2} {
				ctx, cancel := context.WithCancel(context.Background())
				err := session(p.plan, i, 0, workers).AppendFleetRange(ctx, p.lo, p.hi, func(int, []byte) error {
					cancel()
					return nil
				})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("w%d: cancelled stream returned %v", workers, err)
				}
				for j, o := range optSets[:p.optSets] {
					s := session(p.plan, i, j, workers)
					for sink, got := range map[string][]string{
						"AppendFleetRange": appendRange(t, s, p.lo, p.hi),
						"RunFleetRange":    collectRange(t, s, p.lo, p.hi),
					} {
						for d := range got {
							if got[d] != want[j][d] {
								t.Fatalf("%s/w%d %s: device %d differs from the per-device path:\ngot:  %.300s\nwant: %.300s",
									o.name, workers, sink, p.lo+d, got[d], want[j][d])
							}
						}
					}
				}
			}
		})
	}
}

// TestPooledWorkersKeepTheirEngine: two engines that share the name
// "proposed" but are different values never share a worker, so each
// one's batch passes run on its own runner, and the built-in engine's
// runs on neither. A pool keyed by name would hand one wrapper's
// runner to the other, and its counter would show the other's passes.
func TestPooledWorkersKeepTheirEngine(t *testing.T) {
	inner, err := LookupEngine("proposed")
	if err != nil {
		t.Fatal(err)
	}
	a := &countingBatchEngine{batchEngine: inner.(batchEngine)}
	b := &countingBatchEngine{batchEngine: inner.(batchEngine)}
	if a.Name() != inner.Name() || b.Name() != inner.Name() {
		t.Fatalf("wrapper names %q and %q, want both %q", a.Name(), b.Name(), inner.Name())
	}
	session := func(opts ...Option) *Session {
		s, err := New(HeterogeneousExample(), append(opts, WithSeed(1), WithWorkers(1))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa, sb, builtin := session(WithEngine(a)), session(WithEngine(b)), session()
	const devices = 130 // three bank passes at one worker
	want := collectRange(t, builtin, 0, devices)
	for round := int64(1); round <= 3; round++ {
		for _, step := range []struct {
			name   string
			stream func() []string
			aw, bw int64
		}{
			{"a", func() []string { return appendRange(t, sa, 0, devices) }, 3 * round, 3 * (round - 1)},
			{"b", func() []string { return collectRange(t, sb, 0, devices) }, 3 * round, 3 * round},
			{"built-in", func() []string { return appendRange(t, builtin, 0, devices) }, 3 * round, 3 * round},
		} {
			if !slices.Equal(step.stream(), want) {
				t.Fatalf("round %d: engine %s streamed other bytes", round, step.name)
			}
			if ag, bg := a.batches.Load(), b.batches.Load(); ag != step.aw || bg != step.bw {
				t.Fatalf("round %d, after engine %s: passes a=%d b=%d, want a=%d b=%d",
					round, step.name, ag, bg, step.aw, step.bw)
			}
		}
	}
}

// TestPooledWorkersKeepTheirPlan: a plan that differs from a pooled
// worker's only in one memory's seed, under the same name and
// geometry, never runs on that worker, whose builder would draw the
// other plan's defects.
func TestPooledWorkersKeepTheirPlan(t *testing.T) {
	plan := diffPlan()
	plan.Name = "pooled-plan-key"
	other := plan
	other.Memories = slices.Clone(plan.Memories)
	other.Memories[0].Seed++
	stream := func(p Plan) []string {
		s, err := New(p, WithSeed(3), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return appendRange(t, s, 0, 70)
	}
	want := stream(other)
	if slices.Equal(stream(plan), want) {
		t.Fatal("the two plans stream the same bytes; the test is vacuous")
	}
	if !slices.Equal(stream(other), want) {
		t.Fatal("a plan that differs in one memory seed ran on the other plan's pooled worker")
	}
}

// TestFleetWorkersOutliveTheirStream pins the point of the pool: a
// repeat 1,024-device hetero stream at one worker starts on the worker
// the last stream returned, so it allocates a fraction of what a cold
// stream (a plan no pooled worker fits) does. The worker brings the
// line buffers the last stream grew, so a warm stream encodes every
// line into a kept buffer: the least of eight measured 21-22
// allocations and 7-21 KB warm against 376-389 and 1.88-2.01 MB cold,
// and 21 and 7 KB against 399-402 and 2.41-2.43 MB under the race
// detector. The pool drops a worker left idle through two
// collections, so the bounds are checked on the least of eight
// repeats, not on one stream.
func TestFleetWorkersOutliveTheirStream(t *testing.T) {
	const devices, repeats = 1024, 8
	stream := func(s *Session) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := s.AppendFleetRange(context.Background(), 0, devices, func(int, []byte) error { return nil })
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	session := func(name string) *Session {
		plan := HeterogeneousExample()
		plan.Name = name
		s, err := New(plan, WithSeed(6), WithDRF(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	least := func(next func(r int) *Session) (allocs, bytes uint64) {
		allocs, bytes = ^uint64(0), ^uint64(0)
		for r := range repeats {
			a, b := stream(next(r))
			allocs, bytes = min(allocs, a), min(bytes, b)
		}
		return allocs, bytes
	}
	// The cold plans' names are new to the process, so no idle worker
	// fits them even when the test runs again.
	epoch := time.Now().UnixNano()
	coldAllocs, coldBytes := least(func(r int) *Session { return session(fmt.Sprintf("cold-%d-%d", epoch, r)) })
	warm := session("warm")
	stream(warm)
	warmAllocs, warmBytes := least(func(int) *Session { return warm })
	t.Logf("least of %d streams: cold %d allocs, %d B; warm %d allocs, %d B",
		repeats, coldAllocs, coldBytes, warmAllocs, warmBytes)
	if warmAllocs*4 > coldAllocs || warmBytes*3 > coldBytes {
		t.Fatalf("a repeat stream allocates %d times and %d B, a cold one %d and %d B: want at most a quarter of the allocations and a third of the bytes",
			warmAllocs, warmBytes, coldAllocs, coldBytes)
	}
	if warmBytes*50 > coldBytes {
		t.Fatalf("a repeat stream allocates %d B, a cold one %d B: want at most a fiftieth, as its line buffers come with the worker",
			warmBytes, coldBytes)
	}
}

// TestIdleWorkersAgeOut pins workerPool's life cycle: a returned worker
// is the next one a stream of its plan takes, after one sweep too,
// while two sweeps drop it; and the sweeps run on their own after
// collections, so an idle process's workers go to the collector.
func TestIdleWorkersAgeOut(t *testing.T) {
	plan := HeterogeneousExample()
	plan.Name = "idle-workers-age-out"
	s, err := New(plan, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	take := func() *fleetWorker {
		w, err := s.worker()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := take()
	putWorker(w)
	sweepWorkers()
	if take() != w {
		t.Fatal("a worker idle through one sweep was not reused")
	}
	putWorker(w)
	sweepWorkers()
	sweepWorkers()
	if take() == w {
		t.Fatal("a worker idle through two sweeps was reused")
	}
	putWorker(w)
	pooled := func() bool {
		workerPool.Lock()
		defer workerPool.Unlock()
		return slices.Contains(workerPool.idle, w) || slices.Contains(workerPool.old, w)
	}
	for deadline := time.Now().Add(10 * time.Second); pooled(); {
		if time.Now().After(deadline) {
			t.Fatal("a worker idle through collections for 10 s is still pooled")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
