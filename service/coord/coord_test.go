package coord_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/memtest"
	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

func testPlan() memtest.Plan {
	return memtest.Plan{
		Name:    "coord-test",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "a", Words: 32, Width: 8, DefectRate: 0.02, Seed: 1},
			{Name: "b", Words: 16, Width: 4, DefectRate: 0.04, DRFCount: 1, Seed: 2},
		},
	}
}

// newWorker spins one memtestd node (manager + HTTP server).
func newWorker(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() { ts.Close(); m.Close() })
	return ts
}

// fastBackoff keeps re-dispatch detection quick in tests.
func fastBackoff() client.Backoff {
	return client.Backoff{Initial: time.Millisecond, Max: 5 * time.Millisecond, Attempts: 2}
}

// newCoord spins a coordinator over the given worker URLs and serves
// it over HTTP — through the same service.Server as a single node.
func newCoord(t *testing.T, cfg coord.Config) (*client.Client, *coord.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := coord.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(c))
	t.Cleanup(func() { ts.Close(); c.Close() })
	return client.New(ts.URL, ts.Client()), c, ts
}

// localLines runs the same seeded fleet in-process — the reference
// every coordinated stream must match byte for byte.
func localLines(t *testing.T, req service.JobRequest) []string {
	t.Helper()
	opts := []memtest.Option{memtest.WithSeed(req.Seed)}
	if req.Scheme != "" {
		opts = append(opts, memtest.WithScheme(req.Scheme))
	}
	if req.DRF {
		opts = append(opts, memtest.WithDRF())
	}
	if req.Repair != nil {
		opts = append(opts, memtest.WithRepair(*req.Repair))
	}
	s, err := memtest.New(req.Plan, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for dr, err := range s.RunFleetRange(context.Background(), req.FirstDevice, req.FirstDevice+req.Devices) {
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	return lines
}

// rawStream reads a job's NDJSON stream as raw lines.
func rawStream(t *testing.T, ts *httptest.Server, id string) []string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

func compareLines(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream has %d lines, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("line %d differs:\ncoord: %s\nlocal: %s", i, got[i], want[i])
		}
	}
}

func waitState(t *testing.T, c *client.Client, id string, want service.State) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordStreamByteIdenticalAcrossWorkerCounts is the tentpole
// acceptance test: the same job sharded over 2, 3 and 8 workers
// streams byte-identical to an in-process single-node run, and the
// shard table accounts for every device.
func TestCoordStreamByteIdenticalAcrossWorkerCounts(t *testing.T) {
	req := service.JobRequest{
		Plan: testPlan(), Devices: 24, DRF: true, Seed: 7,
		Repair: &memtest.Budget{SpareWords: 1, SpareCells: 2},
	}
	want := localLines(t, req)
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			urls := make([]string, workers)
			for i := range urls {
				// FleetWorkers 1 pins each worker's advertised idle pool, so
				// the live capacity-driven shard plan is exactly one shard
				// per worker regardless of the host's CPU count.
				urls[i] = newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1}).URL
			}
			cc, _, cts := newCoord(t, coord.Config{
				Workers: urls, MinShard: 3, Backoff: fastBackoff(),
			})
			st, err := cc.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Shards) != min(workers, req.Devices/3) {
				t.Fatalf("planned %d shards for %d workers", len(st.Shards), workers)
			}
			compareLines(t, rawStream(t, cts, st.ID), want)
			fin := waitState(t, cc, st.ID, service.StateDone)
			if fin.Completed != req.Devices {
				t.Fatalf("completed = %d, want %d", fin.Completed, req.Devices)
			}
			covered := 0
			for _, sh := range fin.Shards {
				if sh.Merged != sh.Hi-sh.Lo {
					t.Fatalf("shard [%d,%d) merged %d", sh.Lo, sh.Hi, sh.Merged)
				}
				if sh.Worker == "" || sh.JobID == "" {
					t.Fatalf("shard [%d,%d) never dispatched", sh.Lo, sh.Hi)
				}
				covered += sh.Merged
			}
			if covered != req.Devices {
				t.Fatalf("shards cover %d devices, want %d", covered, req.Devices)
			}
		})
	}
}

// TestCoordFirstDeviceWindow: a coordinated job with first_device set
// streams exactly that window of the fleet — shards compose with the
// range offset.
func TestCoordFirstDeviceWindow(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 10, FirstDevice: 5, Seed: 3}
	urls := []string{newWorker(t, service.Config{FleetWorkers: 1}).URL, newWorker(t, service.Config{FleetWorkers: 1}).URL}
	cc, _, cts := newCoord(t, coord.Config{Workers: urls, MinShard: 3, Backoff: fastBackoff()})
	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	compareLines(t, rawStream(t, cts, st.ID), localLines(t, req))
	if fin := waitState(t, cc, st.ID, service.StateDone); fin.Shards[0].Lo != 5 {
		t.Fatalf("first shard starts at %d, want 5", fin.Shards[0].Lo)
	}
}

// TestCoordShardSeamMidBatch: sharding 130 devices over two workers
// puts the seam at device 65 — inside the banked fleet engine's second
// 64-lane batch of a full run, while the second worker's own batches
// start at 65. Per-device seeds derive from absolute indices, so the
// merged stream must stay byte-identical to the single-session run no
// matter where shard seams land relative to batch boundaries.
func TestCoordShardSeamMidBatch(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 130, DRF: true, Seed: 17}
	urls := []string{newWorker(t, service.Config{FleetWorkers: 1}).URL, newWorker(t, service.Config{FleetWorkers: 1}).URL}
	cc, _, cts := newCoord(t, coord.Config{Workers: urls, MinShard: 3, Backoff: fastBackoff()})
	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	compareLines(t, rawStream(t, cts, st.ID), localLines(t, req))
	fin := waitState(t, cc, st.ID, service.StateDone)
	if len(fin.Shards) != 2 || fin.Shards[1].Lo != 65 {
		t.Fatalf("shards = %+v, want two shards with the seam at device 65", fin.Shards)
	}
}

// killSwitch wraps a worker server: after `lines` result lines have
// been served it cuts the stream and answers every later request with
// 503 — a deterministic stand-in for a worker dying mid-shard.
type killSwitch struct {
	h http.Handler

	mu        sync.Mutex
	remaining int
	dead      bool
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.mu.Lock()
	dead := k.dead
	k.mu.Unlock()
	if dead {
		http.Error(w, `{"error":"worker down"}`, http.StatusServiceUnavailable)
		return
	}
	if strings.HasSuffix(r.URL.Path, "/results") {
		k.h.ServeHTTP(&cutWriter{k: k, w: w}, r)
		return
	}
	k.h.ServeHTTP(w, r)
}

// cutWriter counts streamed lines and kills the worker mid-write once
// the budget is spent.
type cutWriter struct {
	k *killSwitch
	w http.ResponseWriter
}

func (c *cutWriter) Header() http.Header { return c.w.Header() }

func (c *cutWriter) WriteHeader(code int) { c.w.WriteHeader(code) }

func (c *cutWriter) Write(p []byte) (int, error) {
	c.k.mu.Lock()
	if c.k.dead {
		c.k.mu.Unlock()
		return 0, fmt.Errorf("worker killed")
	}
	c.k.remaining -= bytes.Count(p, []byte("\n"))
	if c.k.remaining < 0 {
		c.k.dead = true
		c.k.mu.Unlock()
		return 0, fmt.Errorf("worker killed")
	}
	c.k.mu.Unlock()
	return c.w.Write(p)
}

func (c *cutWriter) Flush() {
	if f, ok := c.w.(http.Flusher); ok {
		f.Flush()
	}
}

// TestCoordWorkerDeathRedispatchesShard: a worker that dies mid-shard
// (cut stream, then 503s) has its shard's missing remainder
// re-dispatched to the surviving worker at the delivered device index;
// the merged stream stays gap-free, duplicate-free and byte-identical.
func TestCoordWorkerDeathRedispatchesShard(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 30, Seed: 11}
	want := localLines(t, req)

	mA, err := service.NewManager(service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ks := &killSwitch{h: service.NewServer(mA), remaining: 5}
	wA := httptest.NewServer(ks)
	t.Cleanup(func() { wA.Close(); mA.Close() })
	wB := newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1})

	cc, _, cts := newCoord(t, coord.Config{
		Workers: []string{wA.URL, wB.URL}, MinShard: 5, Backoff: fastBackoff(),
	})
	st, err := cc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	compareLines(t, rawStream(t, cts, st.ID), want)
	fin := waitState(t, cc, st.ID, service.StateDone)
	moved := 0
	for _, sh := range fin.Shards {
		if sh.Worker == wA.URL {
			t.Fatalf("shard [%d,%d) still assigned to the dead worker", sh.Lo, sh.Hi)
		}
		moved += sh.Redispatches
	}
	if moved == 0 {
		t.Fatal("no shard was re-dispatched off the dead worker")
	}
}

// TestCoordRestartResumesMergedStream pins coordinator crash resume:
// a data directory whose manifest says "running" with a truncated
// (torn-tail) merged spool recovers as resuming, re-attaches to the
// recorded worker jobs, and re-merges only the missing suffix — the
// final stream byte-identical to the uninterrupted run.
func TestCoordRestartResumesMergedStream(t *testing.T) {
	req := service.JobRequest{Plan: testPlan(), Devices: 24, Seed: 5}
	want := localLines(t, req)
	urls := []string{
		newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1}).URL,
		newWorker(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1}).URL,
	}
	dir := t.TempDir()

	// Run the job to completion so the workers hold finished shard
	// jobs, then forge the crash scene: manifest back to running,
	// merged spool truncated mid-shard with a torn tail.
	st1, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := coord.New(coord.Config{Workers: urls, MinShard: 3, Store: st1, Backoff: fastBackoff()})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c1.Status(sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == service.StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job ended %q: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()

	const keep = 7 // mid-shard 0 for MinShard 3 / 2 workers
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
	trunc = append(trunc, []byte(`{"torn`)...) // crash mid-append
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
	mdata, err = json.Marshal(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(maniPath, mdata, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cc, c2, cts := newCoord(t, coord.Config{Workers: urls, MinShard: 3, Store: st2, Backoff: fastBackoff()})
	compareLines(t, rawStream(t, cts, sub.ID), want)
	fin := waitState(t, cc, sub.ID, service.StateDone)
	if !fin.Recovered || !fin.Resumed || fin.ResumedFrom != keep {
		t.Fatalf("recovered=%v resumed=%v from=%d, want true/true/%d", fin.Recovered, fin.Resumed, fin.ResumedFrom, keep)
	}
	h := c2.Health()
	if h.JobsRecovered != 1 || h.JobsResumed != 1 {
		t.Fatalf("healthz recovery counters = %d/%d, want 1/1", h.JobsRecovered, h.JobsResumed)
	}
}

// TestCoordHealthReportsFleet: the coordinator's healthz carries the
// per-worker fleet view and its own capability flags.
func TestCoordHealthReportsFleet(t *testing.T) {
	urls := []string{newWorker(t, service.Config{}).URL, newWorker(t, service.Config{}).URL}
	cc, _, _ := newCoord(t, coord.Config{Workers: urls, Backoff: fastBackoff()})
	h, err := cc.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Workers) != 2 {
		t.Fatalf("healthz lists %d workers, want 2", len(h.Workers))
	}
	for _, w := range h.Workers {
		if !w.Healthy {
			t.Fatalf("worker %s unhealthy: %s", w.URL, w.Error)
		}
		if w.State != "active" {
			t.Fatalf("worker %s state = %q, want active", w.URL, w.State)
		}
		if w.ProbeAgeSec < 0 || w.ProbeAgeSec > 60 {
			t.Fatalf("worker %s probe_age_sec = %g, want a fresh probe", w.URL, w.ProbeAgeSec)
		}
	}
	if !h.Resume {
		t.Fatal("coordinator reports crash resume disabled")
	}
	if h.FleetWorkers <= 0 {
		t.Fatalf("aggregated fleet workers = %d", h.FleetWorkers)
	}
}

// stallWorker is a fake memtestd that advertises one busy fleet
// worker, accepts every submission and then streams nothing — a shard
// parked forever, so cancellation ordering and steals of an undrained
// shard are deterministic.
type stallWorker struct {
	streaming chan struct{} // closed when the first results stream attaches

	mu        sync.Mutex
	attached  bool
	cancelled []string
}

func (s *stallWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/v1/healthz":
		json.NewEncoder(w).Encode(service.Health{Resume: true, FleetWorkers: 1})
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		json.NewEncoder(w).Encode(service.JobStatus{ID: "stall-1", State: service.StateRunning})
	case r.Method == http.MethodDelete:
		s.mu.Lock()
		s.cancelled = append(s.cancelled, r.URL.Path)
		s.mu.Unlock()
		json.NewEncoder(w).Encode(service.JobStatus{ID: "stall-1", State: service.StateCancelled})
	case strings.HasSuffix(r.URL.Path, "/results"):
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		s.mu.Lock()
		if !s.attached {
			s.attached = true
			close(s.streaming)
		}
		s.mu.Unlock()
		<-r.Context().Done()
	default:
		http.NotFound(w, r)
	}
}

// TestCoordCancelPropagates: cancelling a coordinated job mid-merge
// marks it cancelled and cancels the dispatched worker jobs.
func TestCoordCancelPropagates(t *testing.T) {
	stall := &stallWorker{streaming: make(chan struct{})}
	ws := httptest.NewServer(stall)
	t.Cleanup(ws.Close)
	cc, _, _ := newCoord(t, coord.Config{Workers: []string{ws.URL}, Backoff: fastBackoff()})
	st, err := cc.Submit(context.Background(), service.JobRequest{Plan: testPlan(), Devices: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel only once the merge is attached to the worker stream, so
	// the shard's worker job is dispatched and recorded.
	select {
	case <-stall.streaming:
	case <-time.After(10 * time.Second):
		t.Fatal("merge never attached to the worker stream")
	}
	if _, err := cc.Cancel(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitState(t, cc, st.ID, service.StateCancelled)
	if fin.Error == "" {
		t.Fatal("cancelled job carries no error")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		stall.mu.Lock()
		n := len(stall.cancelled)
		stall.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker job was never cancelled after coordinated cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
