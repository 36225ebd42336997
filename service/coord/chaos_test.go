package coord_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/service"
	"repro/service/coord"
)

// TestCoordChaosDifferential drives a coordinated job through a fleet
// where every worker sits behind a deterministic fault-injecting proxy
// — scripted stream drops with torn NDJSON tails on two of them, per-
// line latency on the third — and asserts the merged stream is still
// byte-identical to the in-process single-node reference. The
// self-healing stream layer (offset reconnect), the re-dispatch path
// and the spool's torn-tail handling all get exercised by the same
// run; the proxies' counters prove the faults actually fired.
func TestCoordChaosDifferential(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 90, DRF: true, Seed: 23}
	want := localLines(t, req)

	// DropEvery 1 severs every results stream — including each offset-
	// resume reconnect — after a seeded 1..8 lines, so a 30-device shard
	// heals through a cascade of severed streams.
	cfgs := []chaos.Config{
		{Seed: 3, LatencyPerLine: time.Millisecond}, // slow but honest
		{Seed: 5, DropEvery: 1, TornTail: true},     // flaky: severed streams, torn tails
		{Seed: 9, DropEvery: 1},                     // flaky: severed streams, clean cuts
	}
	urls := make([]string, len(cfgs))
	proxies := make([]*chaos.Proxy, len(cfgs))
	for i, cfg := range cfgs {
		w := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
		cfg.Target = w.URL
		p, err := chaos.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ps := httptest.NewServer(p)
		t.Cleanup(ps.Close)
		urls[i], proxies[i] = ps.URL, p
	}

	cc, _, cts := newCoord(t, coord.Config{
		Workers:  urls,
		MinShard: 5, Backoff: fastBackoff(),
		ProbeInterval:  10 * time.Millisecond,
		StealThreshold: 2,
	})
	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("planned %d shards, want 3", len(st.Shards))
	}
	compareLines(t, rawStream(t, cts, st.ID), want)
	fin := waitState(t, cc, st.ID, service.StateDone)
	if fin.Completed != req.Devices {
		t.Fatalf("completed = %d, want %d", fin.Completed, req.Devices)
	}
	var drops int64
	for _, p := range proxies {
		drops += p.Drops()
	}
	if drops == 0 {
		t.Fatal("chaos proxies dropped no streams; the run exercised nothing")
	}
}
