package memtest

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/march"
)

// This file is the cross-path differential wall for the bit-sliced
// fleet engine: every DeviceResult the banked batch path streams must
// be byte-identical (as JSON) to the per-device path's, across fault
// mixes, repair budgets, both background delivery orders, device
// counts that straddle the 64-lane batch boundary, and worker counts.
// The per-device reference arm is obtained by flipping the session's
// noBatch switch, which hides the engine's batch path.

// diffPlan draws the paper's defect classes (SA0/SA1, TFUp/TFDown,
// CFid, CFin) at a rate high enough that every run sees a mix, plus
// explicit DRFs, over heterogeneous widths so background truncation
// and word wrap are both in play.
func diffPlan() Plan {
	return Plan{
		Name:    "diff-fleet",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "wide", Words: 24, Width: 12, DefectRate: 0.05, Seed: 21},
			{Name: "mid", Words: 32, Width: 8, DefectRate: 0.08, DRFCount: 2, Seed: 22},
			{Name: "narrow", Words: 16, Width: 4, DefectRate: 0.1, DRFCount: 1, Seed: 23},
		},
	}
}

// cleanDiffPlan has one faulty memory amid clean ones, so most lanes
// take the all-clean fast path.
func cleanDiffPlan() Plan {
	return Plan{
		Name:    "diff-clean",
		ClockNs: 10,
		Memories: []MemorySpec{
			{Name: "clean0", Words: 32, Width: 8, Seed: 31},
			{Name: "dirty", Words: 16, Width: 6, DefectRate: 0.06, Seed: 32},
			{Name: "clean1", Words: 24, Width: 10, Seed: 33},
		},
	}
}

// diffFleets runs the same plan+options once banked and once per-device
// and requires byte-identical DeviceResult JSON for every device.
func diffFleets(t *testing.T, plan Plan, devices int, opts ...Option) {
	t.Helper()
	banked, err := New(plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := banked.engine.(batchEngine); !ok {
		t.Fatal("proposed engine no longer batchable; differential is vacuous")
	}
	ref, err := New(plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ref.noBatch = true
	want := collectFleet(t, ref, devices)
	got := collectFleet(t, banked, devices)
	for d := 0; d < devices; d++ {
		if got[d] != want[d] {
			t.Fatalf("banked device %d differs from per-device path:\nbanked:  %s\nperdev:  %s",
				d, got[d], want[d])
		}
	}
}

func TestBankedFleetDifferential(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		devices int
		opts    []Option
	}{
		{"mix_drf", diffPlan(), 65, []Option{WithSeed(7), WithDRF(), WithWorkers(4)}},
		{"mix_no_drf", diffPlan(), 65, []Option{WithSeed(8), WithWorkers(4)}},
		{"mix_repair", diffPlan(), 65, []Option{WithSeed(9), WithDRF(), WithWorkers(4),
			WithRepair(Budget{SpareWords: 2, SpareCells: 6})}},
		{"mix_lsb_hazard", diffPlan(), 65, []Option{WithSeed(10), WithDRF(), WithWorkers(4),
			WithDeliveryOrder(LSBFirst)}},
		{"mostly_clean", cleanDiffPlan(), 65, []Option{WithSeed(11), WithWorkers(4)}},
		// Weak-write and retention-pause schedules drive the bank's
		// WriteWeak and Hold, which the default test never calls.
		{"wwtm", diffPlan(), 65, []Option{WithSeed(14), WithDRF(), WithWorkers(4),
			WithMarchTest(march.WithWWTM(march.MarchCW(12)))}},
		{"delay_drf", diffPlan(), 65, []Option{WithSeed(15), WithDRF(), WithWorkers(4),
			WithMarchTest(march.DelayRetentionTest(100))}},
		// Paper scale: 256 faults per device, so every lane fails
		// hundreds of cells, each many times over the schedule.
		{"paper16_drf", Benchmark16(), 65, []Option{WithSeed(13), WithDRF(), WithWorkers(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diffFleets(t, tc.plan, tc.devices, tc.opts...)
		})
	}
}

// TestBankedFleetDifferentialDeviceCounts walks the batch boundary:
// a single lane, one short of a full bank, exactly one bank, one into
// the second bank, and several banks' worth split across workers.
func TestBankedFleetDifferentialDeviceCounts(t *testing.T) {
	for _, devices := range []int{1, 63, 64, 65, 200} {
		t.Run(fmt.Sprintf("%d_devices", devices), func(t *testing.T) {
			diffFleets(t, diffPlan(), devices, WithSeed(3), WithDRF(), WithWorkers(4))
		})
	}
}

// TestBankedFleetDifferentialWorkerCounts pins that batch claiming —
// workers claim 64-device windows in device order through the bounded
// reorder window — stays byte-identical to the per-device path at
// every pool size.
func TestBankedFleetDifferentialWorkerCounts(t *testing.T) {
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		diffFleets(t, diffPlan(), 130, WithSeed(5), WithDRF(), WithWorkers(workers))
	}
}

// TestRunFleetRangeStitchesAcrossBatchBoundary extends the PR 6 stitch
// pin to banked-fleet scale: [0, k) + [k, 130) must be byte-identical
// to a full [0, 130) run at splits on, next to, and far from the
// 64-lane batch boundary. A resumed suffix starts its own batches at
// k, so this holds only because lanes never interact and per-device
// seeds derive from absolute indices.
func TestRunFleetRangeStitchesAcrossBatchBoundary(t *testing.T) {
	const devices = 130
	s, err := New(diffPlan(), WithSeed(7), WithWorkers(2), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	want := collectFleet(t, s, devices)
	for _, k := range []int{1, 63, 64, 65, 129} {
		got := append(collectRange(t, s, 0, k), collectRange(t, s, k, devices)...)
		if len(got) != devices {
			t.Fatalf("k=%d: stitched %d devices", k, len(got))
		}
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("k=%d: stitched device %d differs:\n%s\nvs\n%s", k, d, got[d], want[d])
			}
		}
	}
}

// TestBankedFleetObserverSeesEveryDevice pins that the batch path
// still fires the per-device observer exactly once per device.
func TestBankedFleetObserverSeesEveryDevice(t *testing.T) {
	const devices = 70
	seen := make([]int, devices)
	s, err := New(diffPlan(), WithSeed(2), WithWorkers(1),
		WithDeviceObserver(func(device int) { seen[device]++ }))
	if err != nil {
		t.Fatal(err)
	}
	collectFleet(t, s, devices)
	for d, n := range seen {
		if n != 1 {
			t.Fatalf("observer fired %d times for device %d", n, d)
		}
	}
}
