package memtest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// This file pins the two sinks of the fleet pipeline against each
// other: RunFleetRange's caller-owned Results and AppendFleetRange's
// worker-encoded lines. Both come out of the same worker-owned storage
// (the batch runner's reports and the worker's Result arena), so the
// tests check that the copies own their memory and that the lines are
// the copies' bytes.

// appendRange drains an AppendFleetRange stream into strings, checking
// the device indices cover exactly [lo, hi) in order.
func appendRange(t *testing.T, s *Session, lo, hi int) []string {
	t.Helper()
	var lines []string
	err := s.AppendFleetRange(context.Background(), lo, hi, func(d int, line []byte) error {
		if d != lo+len(lines) {
			return fmt.Errorf("device %d delivered at range position %d (lo=%d)", d, len(lines), lo)
		}
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != hi-lo {
		t.Fatalf("range [%d, %d) delivered %d lines", lo, hi, len(lines))
	}
	return lines
}

// TestAppendFleetRangeMatchesRunFleetRange: every line AppendFleetRange
// delivers is AppendJSON of the DeviceResult RunFleetRange yields for
// the same device, for the batched proposed engine and the per-device
// rawsim engine, at 1, 2 and 8 workers, over ranges that straddle a
// batch boundary.
func TestAppendFleetRangeMatchesRunFleetRange(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plan   Plan
		lo, hi int
		opts   []Option
	}{
		{"hetero", HeterogeneousExample(), 37, 200, []Option{WithSeed(3), WithDRF()}},
		{"diff", diffPlan(), 37, 200, []Option{WithSeed(5), WithDRF(), WithRepair(Budget{SpareWords: 1, SpareCells: 2})}},
		{"paper16_drf", Benchmark16(), 58, 70, []Option{WithSeed(16), WithDRF()}},
	} {
		for _, scheme := range []string{"proposed", "rawsim"} {
			for _, workers := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", tc.name, scheme, workers), func(t *testing.T) {
					opts := append([]Option{WithScheme(scheme), WithWorkers(workers)}, tc.opts...)
					s, err := New(tc.plan, opts...)
					if err != nil {
						t.Fatal(err)
					}
					got := appendRange(t, s, tc.lo, tc.hi)
					d := tc.lo
					for dr, err := range s.RunFleetRange(context.Background(), tc.lo, tc.hi) {
						if err != nil {
							t.Fatal(err)
						}
						want, err := dr.AppendJSON(nil)
						if err != nil {
							t.Fatal(err)
						}
						if got[d-tc.lo] != string(want) {
							t.Fatalf("device %d: line differs from AppendJSON of RunFleetRange:\nline: %.300s\nwant: %.300s",
								d, got[d-tc.lo], want)
						}
						d++
					}
					if d != tc.hi {
						t.Fatalf("RunFleetRange yielded %d devices, want %d", d-tc.lo, tc.hi-tc.lo)
					}
				})
			}
		}
	}
}

// TestRunFleetRangeResultsOwnTheirStorage keeps every Result of a
// 200-device stream and marshals them only after the stream has ended,
// when the workers have reused their storage for three more batches.
// Each must still equal a one-shot diagnosis of its device, which
// shares nothing with the fleet: a result that kept a view of storage
// the batch runner reuses (its located and failure buffers) or of the
// worker's Result arena would show a later device's diagnosis.
func TestRunFleetRangeResultsOwnTheirStorage(t *testing.T) {
	const devices, seed = 200, 11
	for _, plan := range []Plan{HeterogeneousExample(), diffPlan()} {
		// The batch runner hands its record storage over to the results.
		t.Run(plan.Name+"/keeps", func(t *testing.T) {
			s, err := New(plan, WithSeed(seed), WithDRF(), WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			var kept []DeviceResult
			for dr, err := range s.RunFleetRange(context.Background(), 0, devices) {
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, dr)
			}
			if len(kept) != devices {
				t.Fatalf("kept %d devices, want %d", len(kept), devices)
			}
			failing := 0
			for d, dr := range kept {
				got, err := json.Marshal(dr)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Diagnose(context.Background(), plan, WithSeed(deviceSeed(seed, d)), WithDRF())
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range res.Report.Memories {
					if len(m.Failures) > 0 {
						failing++
						break
					}
				}
				want, err := json.Marshal(DeviceResult{Device: d, Seed: deviceSeed(seed, d), Result: res})
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Fatalf("device %d changed after the stream ended:\nkept:     %.300s\none-shot: %.300s", d, got, want)
				}
			}
			if failing < devices/2 {
				t.Fatalf("only %d of %d devices have failure records; the test is vacuous", failing, devices)
			}
		})
	}
}

// countingBatchEngine wraps the proposed engine and counts the batch
// passes its runners make.
type countingBatchEngine struct {
	batchEngine
	batches atomic.Int64
}

func (e *countingBatchEngine) newBatchRunner(plan Plan) batchRunner {
	return &countingBatchRunner{batchRunner: e.batchEngine.newBatchRunner(plan), e: e}
}

type countingBatchRunner struct {
	batchRunner
	e *countingBatchEngine
}

func (r *countingBatchRunner) run(ctx context.Context, lanes int, opt EngineOptions) ([]*Report, error) {
	r.e.batches.Add(1)
	return r.batchRunner.run(ctx, lanes, opt)
}

// TestFleetStreamsBatchDevices is the structural throughput check, the
// one that does not depend on the machine: one worker diagnoses 130
// devices in exactly three bank passes (64 + 64 + 2 lanes), through
// both fleet sinks. A per-device fallback or a split batch would show
// as more passes.
func TestFleetStreamsBatchDevices(t *testing.T) {
	inner, err := LookupEngine("proposed")
	if err != nil {
		t.Fatal(err)
	}
	const devices = 130
	for _, sink := range []string{"RunFleetRange", "AppendFleetRange"} {
		t.Run(sink, func(t *testing.T) {
			e := &countingBatchEngine{batchEngine: inner.(batchEngine)}
			s, err := New(HeterogeneousExample(), WithEngine(e), WithSeed(1), WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if sink == "RunFleetRange" {
				collectRange(t, s, 0, devices)
			} else {
				appendRange(t, s, 0, devices)
			}
			if n := e.batches.Load(); n != 3 {
				t.Fatalf("%d devices took %d bank passes at one worker, want 3", devices, n)
			}
		})
	}
}

// TestAppendFleetRangeErrors: a bad range fails with ErrBadDeviceRange
// and an empty one delivers nothing; an error from fn, or a context
// cancelled under the stream, stops it and is returned.
func TestAppendFleetRangeErrors(t *testing.T) {
	s, err := New(smallPlan(), WithSeed(2), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	never := func(int, []byte) error { return errors.New("fn called") }
	if err := s.AppendFleetRange(ctx, 5, 4, never); !errors.Is(err, ErrBadDeviceRange) {
		t.Fatalf("hi < lo: err = %v, want ErrBadDeviceRange", err)
	}
	if err := s.AppendFleetRange(ctx, 3, 3, never); err != nil {
		t.Fatalf("empty range: err = %v", err)
	}

	stop := errors.New("stop")
	n := 0
	err = s.AppendFleetRange(ctx, 0, 500, func(int, []byte) error {
		if n++; n == 70 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 70 {
		t.Fatalf("fn error: err = %v after %d lines, want stop after 70", err, n)
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n = 0
	err = s.AppendFleetRange(cctx, 0, 5000, func(int, []byte) error {
		n++
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) || n >= 5000 {
		t.Fatalf("cancelled: err = %v after %d lines, want context.Canceled", err, n)
	}
}

// TestResultFromAllocs pins the evaluation's allocations with no
// repair budget: the Result and its exact-size Memories slice, however
// many memories the plan has — no append growth and no per-memory
// located list for a yield that is not computed.
func TestResultFromAllocs(t *testing.T) {
	s, err := New(HeterogeneousExample(), WithSeed(4), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	truth, rep, err := s.runOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { s.fillResult(new(Result), truth, rep) })
	if allocs > 2 {
		t.Fatalf("fillResult into a new Result over %d memories allocates %.0f times, want <= 2", len(rep.Memories), allocs)
	}
}

// TestAppendFleetRangeAllocs pins the served fleet path's allocation
// count with no repair budget. Diagnosing and encoding a device
// allocates (almost) nothing: the bank pass, the evaluation and the
// encode reuse worker storage, and each line goes out in one of its
// worker's buffers, so 1,024 more devices cost a few dozen allocations
// at most, where one per device would show any per-device allocation:
// a buffer replaced when a longer line comes along, or dropped after a
// burst and grown again, which depends on scheduling (the least of
// eight measured 0 in a plain build and under -race). What a stream
// allocates is its setup — claims and their channels, 28 allocations
// at two workers, whose fleet workers come warm from the pool with
// their line buffers — which stays under one per device from 1,024
// devices on (0.014 per device over 2,048, plain and under -race). A
// collection between two streams can age the pooled workers out, so a
// stream can start on cold workers, ~400 more allocations each: each
// size counts the least of eight streams, on one processor as
// testing.AllocsPerRun counts.
func TestAppendFleetRangeAllocs(t *testing.T) {
	s, err := New(HeterogeneousExample(), WithSeed(6), WithDRF(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(devices int) float64 {
		least := ^uint64(0)
		for range 8 {
			lines := 0
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := s.AppendFleetRange(context.Background(), 0, devices, func(int, []byte) error {
				lines++
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if lines != devices {
				t.Fatalf("delivered %d lines for %d devices", lines, devices)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return float64(least)
	}
	const devices = 1024
	small, large := allocs(devices), allocs(2*devices)
	if perDevice := large / (2 * devices); perDevice > 0.6 {
		t.Errorf("AppendFleetRange allocates %.0f times per %d devices (%.3f/device), want <= 0.6/device",
			large, 2*devices, perDevice)
	}
	if marginal := (large - small) / devices; marginal > 0.25 {
		t.Errorf("each device past the first %d allocates %.3f times (%.0f vs %.0f per run), want <= 0.25",
			devices, marginal, large, small)
	}
}
