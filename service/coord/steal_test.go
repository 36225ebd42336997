package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

// stealFleet builds the canonical straggler topology: worker A sits
// behind a chaos proxy that silently stalls its first results stream
// after five lines (the stream stays open — no error, no reconnect,
// just no more bytes), worker B is healthy. Both advertise one idle
// device-worker, so a 30-device job at MinShard 5 plans exactly two
// shards and the stalled shard can only finish via a steal.
func stealFleet(t *testing.T) (proxyURL, workerB string, proxy *chaos.Proxy) {
	t.Helper()
	wA := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
	proxy, err := chaos.New(chaos.Config{Target: wA.URL, Seed: 1, StallAfterLines: 5})
	if err != nil {
		t.Fatal(err)
	}
	ps := httptest.NewServer(proxy)
	t.Cleanup(ps.Close)
	wB := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
	return ps.URL, wB.URL, proxy
}

func stealConfig(workers []string) coord.Config {
	return coord.Config{
		Workers:  workers,
		MinShard: 5, Backoff: fastBackoff(),
		ProbeInterval:  5 * time.Millisecond,
		StealThreshold: 2,
		Metrics:        obs.NewRegistry(),
	}
}

// newSteppedCoord is newCoord with the steal monitor driven by hand:
// no steal round runs unless the test steps one.
func newSteppedCoord(t *testing.T, cfg coord.Config) (*client.Client, *coord.Coordinator, *httptest.Server, *coord.StealStepper) {
	t.Helper()
	c, steps, err := coord.NewStepped(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(c))
	t.Cleanup(func() { ts.Close(); c.Close() })
	return client.New(ts.URL, ts.Client()), c, ts, steps
}

// waitFor polls cond until it holds, failing the test after 15s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stealStalledShard steps exactly one steal round once the stealFleet
// scene is set: the proxy has stalled shard 0 after its five merged
// lines, worker B has finished shard 1, and the coordinator's cached
// view reports both workers idle. The round then has one straggler
// (shard 0's ten unmerged devices against a median of zero) and one
// target (B), so it steals [5,15) onto B.
func stealStalledShard(t *testing.T, c *coord.Coordinator, steps *coord.StealStepper, id, workerB string, proxy *chaos.Proxy) {
	t.Helper()
	waitFor(t, "the proxy to stall shard 0 after five merged lines", func() bool {
		st, err := c.Status(id)
		return err == nil && proxy.Stalls() == 1 && st.Completed == 5
	})
	cb := client.New(workerB, nil)
	waitFor(t, "worker B to finish shard 1", func() bool {
		st, err := c.Status(id)
		if err != nil || len(st.Shards) != 2 || st.Shards[1].JobID == "" {
			return false
		}
		if sh := st.Shards[1]; sh.Worker != workerB {
			t.Fatalf("shard 1 dispatched to %s, want %s", sh.Worker, workerB)
		}
		wst, err := cb.Job(context.Background(), st.Shards[1].JobID)
		return err == nil && wst.State == service.StateDone
	})
	waitFor(t, "the cached view to report both workers idle", func() bool {
		return c.Health().IdleWorkers == 2
	})
	if err := steps.Step(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCoordStealRescuesStalledStream is the work-stealing acceptance
// test: a shard whose stream stalls silently mid-merge is detected as
// the straggler, its unmerged remainder is re-split onto the idle
// worker as new ordered range jobs, and the merged stream stays
// byte-identical to the unsharded in-process run — the job cannot
// finish any other way, because the stalled stream never errors.
func TestCoordStealRescuesStalledStream(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 30, DRF: true, Seed: 11}
	want := localLines(t, req)
	proxyURL, workerB, proxy := stealFleet(t)
	cc, c, cts, steps := newSteppedCoord(t, stealConfig([]string{proxyURL, workerB}))

	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("planned %d shards, want 2", len(st.Shards))
	}
	stealStalledShard(t, c, steps, st.ID, workerB, proxy)
	compareLines(t, rawStream(t, cts, st.ID), want)
	fin := waitState(t, cc, st.ID, service.StateDone)

	if fin.Steals < 1 {
		t.Fatalf("job finished with %d steals, want >= 1", fin.Steals)
	}
	stolen := 0
	for _, sh := range fin.Shards {
		if sh.Merged != sh.Hi-sh.Lo {
			t.Fatalf("shard [%d,%d) merged %d", sh.Lo, sh.Hi, sh.Merged)
		}
		if sh.Stolen {
			stolen++
			if sh.Worker != workerB {
				t.Fatalf("stolen shard [%d,%d) on %s, want the idle worker %s", sh.Lo, sh.Hi, sh.Worker, workerB)
			}
		}
	}
	if stolen == 0 {
		t.Fatalf("no stolen shard in the final table: %+v", fin.Shards)
	}
	if proxy.Stalls() != 1 {
		t.Fatalf("proxy stalled %d streams, want 1", proxy.Stalls())
	}
	if got := scrapeMetric(t, cts, "coord_shard_steals_total"); got < 1 {
		t.Fatalf("coord_shard_steals_total = %g, want >= 1", got)
	}
}

// TestCoordStealCrashResumeRebasesExtendedTable: a coordinator crash
// after a steal recovers against the *extended* shard table — the
// manifest's stolen sub-shards rebase onto the truncated spool and the
// resumed merge re-attaches to the recorded worker jobs, byte-identical
// end to end. The restarted coordinator steps no steal round, so the
// resumed table is exactly the recorded one.
func TestCoordStealCrashResumeRebasesExtendedTable(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 30, DRF: true, Seed: 11}
	want := localLines(t, req)
	proxyURL, workerB, proxy := stealFleet(t)
	workers := []string{proxyURL, workerB}
	dir := t.TempDir()

	// Run to completion through one steal, then forge the crash scene:
	// manifest back to running, spool truncated mid-shard-0 with a torn
	// tail.
	st1, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stealConfig(workers)
	cfg.Store = st1
	c1, steps1, err := coord.NewStepped(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	stealStalledShard(t, c1, steps1, sub.ID, workerB, proxy)
	deadline := time.Now().Add(30 * time.Second)
	var done service.JobStatus
	for {
		done, err = c1.Status(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if done.State == service.StateDone {
			break
		}
		if done.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job ended %q: %s", done.State, done.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()
	if done.Steals < 1 || len(done.Shards) < 3 {
		t.Fatalf("pre-crash run: steals=%d shards=%d, want a stolen, extended table", done.Steals, len(done.Shards))
	}

	const keep = 3 // mid-victim-shard for the post-steal table
	spoolPath := filepath.Join(dir, sub.ID+".ndjson")
	data, err := os.ReadFile(spoolPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	var trunc []byte
	for i := 0; i < keep; i++ {
		trunc = append(trunc, lines[i]...)
	}
	trunc = append(trunc, []byte(`{"torn`)...)
	if err := os.WriteFile(spoolPath, trunc, 0o644); err != nil {
		t.Fatal(err)
	}
	maniPath := filepath.Join(dir, sub.ID+".json")
	mdata, err := os.ReadFile(maniPath)
	if err != nil {
		t.Fatal(err)
	}
	var mf map[string]any
	if err := json.Unmarshal(mdata, &mf); err != nil {
		t.Fatal(err)
	}
	mf["state"] = "running"
	delete(mf, "finished")
	if mdata, err = json.Marshal(mf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(maniPath, mdata, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := stealConfig(workers)
	cfg2.Store = st2
	cc, _, cts, _ := newSteppedCoord(t, cfg2)
	compareLines(t, rawStream(t, cts, sub.ID), want)
	fin := waitState(t, cc, sub.ID, service.StateDone)
	if !fin.Recovered || !fin.Resumed || fin.ResumedFrom != keep {
		t.Fatalf("recovered=%v resumed=%v from=%d, want true/true/%d", fin.Recovered, fin.Resumed, fin.ResumedFrom, keep)
	}
	if len(fin.Shards) != len(done.Shards) {
		t.Fatalf("resumed table has %d shards, crashed run had %d", len(fin.Shards), len(done.Shards))
	}
	stolen := false
	for i, sh := range fin.Shards {
		if sh.Merged != sh.Hi-sh.Lo {
			t.Fatalf("shard [%d,%d) merged %d after resume", sh.Lo, sh.Hi, sh.Merged)
		}
		if sh.Lo != done.Shards[i].Lo || sh.Hi != done.Shards[i].Hi {
			t.Fatalf("resumed shard %d = [%d,%d), crashed run had [%d,%d)",
				i, sh.Lo, sh.Hi, done.Shards[i].Lo, done.Shards[i].Hi)
		}
		stolen = stolen || sh.Stolen
	}
	if !stolen {
		t.Fatal("stolen flag lost across crash resume")
	}
}

// TestCoordStealLeavesNoEmptyShard: a steal of a shard that has merged
// nothing replaces it with the stolen pieces instead of shrinking it to
// an empty [lo,lo). Worker A is real; worker B advertises one fleet
// worker, accepts its shard and never streams. Once A's shard has
// drained and the merge is parked on B's stream, one round moves B's
// whole shard onto A.
func TestCoordStealLeavesNoEmptyShard(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 30, DRF: true, Seed: 11}
	want := localLines(t, req)
	wA := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
	stall := &stallWorker{streaming: make(chan struct{})}
	wB := httptest.NewServer(stall)
	t.Cleanup(wB.Close)
	cc, c, cts, steps := newSteppedCoord(t, stealConfig([]string{wA.URL, wB.URL}))

	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("planned %d shards, want 2", len(st.Shards))
	}
	// The merge drains in device order, so it attaches to B's stream
	// only after A's shard has drained.
	select {
	case <-stall.streaming:
	case <-time.After(15 * time.Second):
		t.Fatal("merge never attached to the stalled worker's stream")
	}
	waitFor(t, "A's shard to drain and the cached view to report A idle", func() bool {
		st, err := c.Status(st.ID)
		return err == nil && st.Completed == 15 && c.Health().IdleWorkers == 1
	})
	if err := steps.Step(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	compareLines(t, rawStream(t, cts, st.ID), want)
	fin := waitState(t, cc, st.ID, service.StateDone)

	if fin.Steals != 1 {
		t.Fatalf("job finished with %d steals, want 1", fin.Steals)
	}
	for _, sh := range fin.Shards {
		if sh.Lo == sh.Hi {
			t.Fatalf("empty shard [%d,%d) left in the table: %+v", sh.Lo, sh.Hi, fin.Shards)
		}
		if sh.Merged != sh.Hi-sh.Lo {
			t.Fatalf("shard [%d,%d) merged %d", sh.Lo, sh.Hi, sh.Merged)
		}
		if sh.Worker != wA.URL {
			t.Fatalf("shard [%d,%d) on %s, want every shard on %s", sh.Lo, sh.Hi, sh.Worker, wA.URL)
		}
	}
	if len(fin.Shards) != 2 || !fin.Shards[1].Stolen || fin.Shards[1].Lo != 15 {
		t.Fatalf("final table = %+v, want [0,15) and the stolen [15,30)", fin.Shards)
	}
}
