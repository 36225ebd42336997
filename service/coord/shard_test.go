package coord

import (
	"fmt"
	"testing"
	"time"

	"repro/service"
)

// TestPlanShardsCoversRangeContiguously: every plan partitions
// [first, first+devices) exactly — contiguous, gap-free, in order.
func TestPlanShardsCoversRangeContiguously(t *testing.T) {
	for _, tc := range []struct {
		first, devices, workers, minShard int
		want                              int // shard count
	}{
		{0, 100, 4, 10, 4},  // enough devices: one shard per worker
		{0, 100, 4, 60, 1},  // floor collapses to a single shard
		{0, 100, 4, 30, 3},  // floor caps below worker count
		{0, 7, 16, 1, 7},    // never more shards than devices
		{0, 1, 8, 64, 1},    // one device, one shard
		{500, 10, 3, 2, 3},  // offset ranges shard the same way
		{0, 23, 4, 5, 4},    // remainder spreads over trailing shards
		{0, 100, 1, 1, 1},   // single worker
		{0, 1000, 8, 64, 8}, // big job saturates the fleet
		{0, 129, 8, 64, 2},  // just past 2x floor
	} {
		shards := planShards(tc.first, tc.devices, tc.workers, tc.minShard)
		if len(shards) != tc.want {
			t.Errorf("planShards(%d,%d,%d,%d) = %d shards, want %d",
				tc.first, tc.devices, tc.workers, tc.minShard, len(shards), tc.want)
			continue
		}
		lo := tc.first
		for i, sh := range shards {
			if sh.Lo != lo {
				t.Errorf("case %+v shard %d starts at %d, want %d", tc, i, sh.Lo, lo)
			}
			if sh.Hi <= sh.Lo {
				t.Errorf("case %+v shard %d empty: [%d,%d)", tc, i, sh.Lo, sh.Hi)
			}
			lo = sh.Hi
		}
		if lo != tc.first+tc.devices {
			t.Errorf("case %+v covers up to %d, want %d", tc, lo, tc.first+tc.devices)
		}
		// Shard sizes differ by at most one, smaller shards first, so a
		// re-planned table after recovery lines up with the original.
		minSz, maxSz := tc.devices, 0
		for _, sh := range shards {
			minSz = min(minSz, sh.Hi-sh.Lo)
			maxSz = max(maxSz, sh.Hi-sh.Lo)
		}
		if maxSz-minSz > 1 {
			t.Errorf("case %+v shard sizes spread %d..%d", tc, minSz, maxSz)
		}
	}
}

// TestPlanWorkersDegradedFleet: shard sizing follows membership — the
// summed configured device-worker pools of the active workers — so a
// busy but alive worker plans at its full pool, whatever its last idle
// sample said, while down and quarantined workers count zero and a
// degraded fleet plans fewer, larger shards.
func TestPlanWorkersDegradedFleet(t *testing.T) {
	type wk struct {
		state      string
		pool, idle int
	}
	for _, tc := range []struct {
		name    string
		fleet   []wk
		want    int // planWorkers
		devices int
		shards  int // resulting planShards count at MinShard 64
	}{
		{"full fleet", []wk{{stateActive, 4, 4}, {stateActive, 4, 4}, {stateActive, 4, 4}}, 12, 1024, 12},
		{"one survivor", []wk{{stateActive, 4, 4}, {stateDown, 4, 4}, {stateQuarantined, 4, 4}}, 4, 1024, 4},
		{"busy but alive", []wk{{stateActive, 4, 0}, {stateActive, 4, 0}}, 8, 1024, 8},
		{"one busy, one idle", []wk{{stateActive, 1, 0}, {stateActive, 1, 1}}, 2, 2048, 2},
		{"no pool reported", []wk{{stateActive, 0, 0}, {stateActive, 0, 0}, {stateDown, 0, 0}}, 2, 1024, 2},
		{"all dark", []wk{{stateDown, 4, 4}, {stateQuarantined, 4, 4}}, 1, 1024, 1},
		{"empty fleet", nil, 1, 1024, 1},
	} {
		r := &registry{now: time.Now}
		for i, f := range tc.fleet {
			w := &worker{url: fmt.Sprintf("http://w%d", i), state: f.state}
			w.health.FleetWorkers = f.pool
			w.health.IdleWorkers = f.idle
			r.workers = append(r.workers, w)
		}
		c := &Coordinator{reg: r, cfg: Config{MinShard: 64}}
		if got := c.planWorkers(); got != tc.want {
			t.Errorf("%s: planWorkers = %d, want %d", tc.name, got, tc.want)
		}
		if got := len(planShards(0, tc.devices, c.planWorkers(), c.cfg.MinShard)); got != tc.shards {
			t.Errorf("%s: planShards -> %d shards, want %d", tc.name, got, tc.shards)
		}
	}
}

// TestPlanShardsDeterministic: the same inputs always produce the same
// table — recovery re-plans a missing shard table and must agree with
// what the crashed coordinator dispatched.
func TestPlanShardsDeterministic(t *testing.T) {
	a := planShards(10, 997, 7, 16)
	b := planShards(10, 997, 7, 16)
	if len(a) != len(b) {
		t.Fatalf("shard counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shard %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRebaseMerged: a merged-line count distributes over the shard
// table as the device-order prefix it is.
func TestRebaseMerged(t *testing.T) {
	mk := func() []service.ShardStatus {
		return []service.ShardStatus{
			{Lo: 0, Hi: 10, Merged: 10}, // stale counters from the crashed run
			{Lo: 10, Hi: 20, Merged: 7},
			{Lo: 20, Hi: 30, Merged: 0},
		}
	}
	for _, tc := range []struct {
		merged int
		want   [3]int
	}{
		{0, [3]int{0, 0, 0}},
		{5, [3]int{5, 0, 0}},
		{10, [3]int{10, 0, 0}},
		{17, [3]int{10, 7, 0}},
		{25, [3]int{10, 10, 5}},
		{30, [3]int{10, 10, 10}},
	} {
		shards := mk()
		rebaseMerged(shards, tc.merged)
		for i, sh := range shards {
			if sh.Merged != tc.want[i] {
				t.Errorf("rebase(%d) shard %d merged %d, want %d", tc.merged, i, sh.Merged, tc.want[i])
			}
		}
	}
}
