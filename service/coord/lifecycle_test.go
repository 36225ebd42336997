package coord_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

// parkedCoord serves a one-merge-worker coordinator over a stallWorker
// and parks its only merge worker on a first job, so every later
// submission stays queued.
func parkedCoord(t *testing.T, cfg coord.Config) (*client.Client, *coord.Coordinator, *httptest.Server) {
	t.Helper()
	stall := &stallWorker{streaming: make(chan struct{})}
	ws := httptest.NewServer(stall)
	t.Cleanup(ws.Close)
	cfg.Workers, cfg.Jobs, cfg.Backoff = []string{ws.URL}, 1, fastBackoff()
	cc, c, ts := newCoord(t, cfg)
	if _, err := cc.Submit(context.Background(), service.JobRequest{Plan: testPlan(), Devices: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-stall.streaming:
	case <-time.After(10 * time.Second):
		t.Fatal("merge never attached to the worker stream")
	}
	return cc, c, ts
}

// TestCoordRetentionEvictsOldestFinished: with RetainJobs 1, finishing
// a second coordinated job evicts the first from the job table and the
// store.
func TestCoordRetentionEvictsOldestFinished(t *testing.T) {
	st := store.NewMem()
	cc, c, _ := newCoord(t, coord.Config{
		Workers: []string{newWorker(t, service.Config{}).URL}, Backoff: fastBackoff(),
		Store: st, RetainJobs: 1,
	})
	ctx := context.Background()
	var ids []string
	for seed := range int64(2) {
		js, err := cc.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, cc, js.ID, service.StateDone)
		ids = append(ids, js.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Status(ids[0])
		if errors.Is(err, service.ErrUnknownJob) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest finished job still retained: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stored, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(stored, ids[0]) || !slices.Contains(stored, ids[1]) {
		t.Fatalf("store lists %v, want %s evicted and %s kept", stored, ids[0], ids[1])
	}
	if _, err := c.Status(ids[1]); err != nil {
		t.Fatalf("newest finished job evicted: %v", err)
	}
}

// TestCoordQueueFull: with the merge worker parked and the one-slot
// backlog taken, a further submission fails fast with ErrQueueFull,
// which the server maps to HTTP 429.
func TestCoordQueueFull(t *testing.T) {
	cc, c, _ := parkedCoord(t, coord.Config{Queue: 1})
	req := service.JobRequest{Plan: testPlan(), Devices: 10, Seed: 2}
	if _, err := cc.Submit(context.Background(), req); err != nil {
		t.Fatalf("queueing the second job: %v", err)
	}
	if _, err := c.Submit(req); !errors.Is(err, service.ErrQueueFull) {
		t.Fatalf("in-process submit err = %v, want ErrQueueFull", err)
	}
	_, err := cc.Submit(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP submit err = %v, want 429", err)
	}
}

// TestCoordCancelQueuedJob: cancelling a queued coordinated job ends it
// at once — its follower returns the job error, its backlog slot frees
// for the next submission, and coord_jobs_finished_total counts it.
func TestCoordCancelQueuedJob(t *testing.T) {
	cc, c, ts := parkedCoord(t, coord.Config{Queue: 1, Metrics: obs.NewRegistry()})
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Devices: 10, Seed: 2}
	queued, err := cc.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	followed := make(chan string, 1)
	go func() {
		jobErr, err := c.Follow(ctx, queued.ID, 0, func([]byte) error { return nil })
		if err != nil {
			jobErr = "follower error: " + err.Error()
		}
		followed <- jobErr
	}()
	st, err := cc.Cancel(ctx, queued.ID)
	if err != nil || st.State != service.StateCancelled {
		t.Fatalf("cancel queued = %+v, %v", st, err)
	}
	select {
	case jobErr := <-followed:
		if jobErr != context.Canceled.Error() {
			t.Fatalf("follower ended with %q, want the cancellation", jobErr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follower of the cancelled queued job never ended")
	}
	if _, err := cc.Submit(ctx, req); err != nil {
		t.Fatalf("the cancelled job's slot was not freed: %v", err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `coord_jobs_finished_total{state="cancelled"} 1`) {
		t.Errorf("cancelled-while-queued coordinated job not counted:\n%s", raw)
	}
}
