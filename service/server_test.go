package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/memtest"
	"repro/service"
	"repro/service/client"
)

func testPlan() memtest.Plan {
	return memtest.Plan{
		Name:    "svc-test",
		ClockNs: 10,
		Memories: []memtest.MemorySpec{
			{Name: "a", Words: 32, Width: 8, DefectRate: 0.02, Seed: 1},
			{Name: "b", Words: 16, Width: 4, DefectRate: 0.04, DRFCount: 1, Seed: 2},
		},
	}
}

// newTestServer spins a manager + HTTP server and returns a client.
func newTestServer(t *testing.T, cfg service.Config) (*client.Client, *service.Manager, *httptest.Server) {
	t.Helper()
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() { ts.Close(); m.Close() })
	return client.New(ts.URL, ts.Client()), m, ts
}

// localLines runs the same seeded session in-process and returns the
// per-device lines exactly as json.Marshal renders them — the
// reference the wire stream must match byte for byte.
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
	for dr, err := range s.RunFleet(context.Background(), req.Devices) {
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
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
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

func waitState(t *testing.T, c *client.Client, id string, want service.State) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q, want %q", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// eventually polls cond every 5 ms for up to 10 s and reports whether
// it came true: for side effects that land just after the state change
// a test waited on, such as retention evicting a job that just finished.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSubmitStreamByteIdenticalToLocalRunFleet is the acceptance-
// criterion test: a fleet job submitted over HTTP streams NDJSON
// DeviceResults byte-identical to Session.RunFleet run in-process with
// the same seed, line for line in device order — whether the request
// asks for "ordered", leaves delivery empty, or uses the deprecated
// "unordered" alias.
func TestSubmitStreamByteIdenticalToLocalRunFleet(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 2, Queue: 8})
	for _, tc := range []struct{ name, delivery string }{
		{"ordered", "ordered"}, {"default", ""}, {"unordered", "unordered"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := service.JobRequest{
				Plan: testPlan(), Devices: 6, DRF: true, Seed: 7,
				Delivery: tc.delivery,
				Repair:   &memtest.Budget{SpareWords: 1, SpareCells: 2},
			}
			st, err := c.Submit(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got := rawStream(t, ts, st.ID)
			want := localLines(t, req)
			if len(got) != len(want) {
				t.Fatalf("stream has %d lines, local run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d differs:\nwire : %s\nlocal: %s", i, got[i], want[i])
				}
			}
			if st := waitState(t, c, st.ID, service.StateDone); st.Completed != req.Devices {
				t.Fatalf("completed = %d, want %d", st.Completed, req.Devices)
			}
		})
	}
}

// TestStreamReplayAfterCompletion: a reader connecting after the job
// finished replays the full buffered stream.
func TestStreamReplayAfterCompletion(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	req := service.JobRequest{Plan: testPlan(), Devices: 4, Seed: 9, Delivery: "ordered"}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, service.StateDone)
	got := rawStream(t, ts, st.ID)
	want := localLines(t, req)
	if len(got) != len(want) {
		t.Fatalf("replay has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed line %d differs", i)
		}
	}
}

// blockEngine parks inside Run until released or cancelled, making
// scheduling-dependent tests deterministic.
type blockEngine struct {
	name    string
	started chan struct{}
	release chan struct{}
}

// blockEngines numbers block-engine registrations: the engine registry
// is process-global, so each registration needs a fresh name for the
// tests to run more than once in one process (go test -count=N).
var blockEngines atomic.Int64

// newBlockEngine registers a block engine named after name plus a
// process-unique suffix; requests select it by e.name.
func newBlockEngine(t *testing.T, name string) blockEngine {
	t.Helper()
	name = fmt.Sprintf("%s-%d", name, blockEngines.Add(1))
	e := blockEngine{name: name, started: make(chan struct{}, 64), release: make(chan struct{})}
	if err := memtest.RegisterEngine(e); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e blockEngine) Name() string     { return e.name }
func (e blockEngine) Describe() string { return e.name }

func (e blockEngine) Run(ctx context.Context, f *memtest.Fleet, opt memtest.EngineOptions) (*memtest.Report, error) {
	select {
	case e.started <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-e.release:
		return &memtest.Report{Scheme: e.name, ClockNs: opt.ClockNs}, nil
	}
}

func (e blockEngine) awaitStart(t *testing.T) {
	t.Helper()
	select {
	case <-e.started:
	case <-time.After(10 * time.Second):
		t.Fatal("engine never started")
	}
}

// TestQueueFullReturns429: with one scheduler worker pinned on a
// blocked job and a queue of one, a third submission is refused with
// HTTP 429 — and succeeds again once capacity frees up.
func TestQueueFullReturns429(t *testing.T) {
	// A t.Cleanup-closed manager cancels parked engines via their run
	// context, so an early t.Fatal cannot leak the blocked goroutines.
	c, _, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 1})
	e := newBlockEngine(t, "block-queue")
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Devices: 1, Scheme: e.name}

	a, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t) // the worker is now parked inside job A
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatalf("queueing b: %v", err)
	}
	_, err = c.Submit(ctx, req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit err = %v, want HTTP 429", err)
	}
	// Release the engine: both accepted jobs must drain to done.
	close(e.release)
	waitState(t, c, a.ID, service.StateDone)
}

// TestDiagnoseBusyReturns429: with every one-shot slot pinned on a
// blocked engine, a second /v1/diagnose is refused with HTTP 429, not
// treated as a malformed request.
func TestDiagnoseBusyReturns429(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 1})
	e := newBlockEngine(t, "block-diagnose")
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Scheme: e.name}

	firstDone := make(chan error, 1)
	go func() {
		_, err := c.Diagnose(ctx, req)
		firstDone <- err
	}()
	e.awaitStart(t) // the only slot is now held inside the first one-shot

	_, err := c.Diagnose(ctx, req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second diagnose err = %v, want HTTP 429", err)
	}
	if h, err := c.Health(ctx); err != nil || h.Diagnosing != 1 {
		t.Fatalf("health during one-shot = %+v, %v, want diagnosing=1", h, err)
	}
	close(e.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("first diagnose: %v", err)
	}
}

// TestDeleteCancelsRunningJob: DELETE on a running job aborts its
// engines promptly and terminates an open result stream with an error
// line.
func TestDeleteCancelsRunningJob(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	e := newBlockEngine(t, "block-delete")
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 3, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)

	streamErr := make(chan error, 1)
	go func() {
		var last error
		for _, err := range c.Results(ctx, st.ID) {
			last = err
		}
		streamErr <- last
	}()

	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, c, st.ID, service.StateCancelled)
	if final.Error == "" {
		t.Fatal("cancelled job carries no error")
	}
	select {
	case err := <-streamErr:
		var jobErr *client.JobError
		if !errors.As(err, &jobErr) {
			t.Fatalf("stream ended with %v, want JobError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("result stream never terminated after cancel")
	}
	// Cancelling a terminal job stays terminal.
	if st, err := c.Cancel(ctx, st.ID); err != nil || st.State != service.StateCancelled {
		t.Fatalf("re-cancel: %v, %v", st.State, err)
	}
}

// TestDisconnectCancelsJob: a results reader that asked for
// cancel_on_disconnect and goes away mid-stream cancels the job.
func TestDisconnectCancelsJob(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	e := newBlockEngine(t, "block-disconnect")
	st, err := c.Submit(context.Background(), service.JobRequest{Plan: testPlan(), Devices: 2, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	e.release <- struct{}{} // let exactly one device finish

	// Tail with cancel_on_disconnect and vanish after the first device
	// lands — by then the stream is established server-side.
	rctx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, err := range c.Results(rctx, st.ID, client.WithCancelOnDisconnect()) {
			if err != nil {
				return
			}
			disconnect()
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("reader never finished")
	}
	waitState(t, c, st.ID, service.StateCancelled)
}

// TestManyConcurrentJobs is the -race probe: several clients submit
// and tail real jobs at once over shared scheduler capacity.
func TestManyConcurrentJobs(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 4, Queue: 32, FleetWorkers: 8})
	const jobs, devices = 6, 5
	var wg sync.WaitGroup
	errs := make(chan error, jobs)
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: devices, Seed: int64(i)})
			if err != nil {
				errs <- err
				return
			}
			n := 0
			for _, err := range c.Results(ctx, st.ID) {
				if err != nil {
					errs <- err
					return
				}
				n++
			}
			if n != devices {
				errs <- errors.New("short stream")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	list, err := c.Jobs(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != jobs {
		t.Fatalf("listed %d jobs, want %d", len(list), jobs)
	}
	for _, st := range list {
		if st.State != service.StateDone || st.Completed != devices {
			t.Fatalf("job %s: %+v", st.ID, st)
		}
	}
}

// TestDiagnoseMatchesLocalRunAll: the one-shot endpoint returns the
// same result as RunAll in-process.
func TestDiagnoseMatchesLocalRunAll(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 2})
	req := service.JobRequest{Plan: testPlan(), DRF: true, Seed: 5}
	got, err := c.Diagnose(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	s, err := memtest.New(req.Plan, memtest.WithDRF(), memtest.WithSeed(req.Seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("diagnose differs from local RunAll:\nwire : %s\nlocal: %s", gotJSON, wantJSON)
	}
}

// TestClientRunSubmitsAndTails: the submit-and-tail convenience
// round-trips a whole job.
func TestClientRunSubmitsAndTails(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 2, Queue: 8})
	var st service.JobStatus
	n := 0
	for _, err := range c.Run(context.Background(), service.JobRequest{Plan: testPlan(), Devices: 4, Seed: 1}, &st) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 4 || st.ID == "" {
		t.Fatalf("streamed %d devices for job %q", n, st.ID)
	}
}

func TestBadRequests(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 2})
	ctx := context.Background()
	check := func(err error, status int, frag string) {
		t.Helper()
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != status {
			t.Fatalf("err = %v, want HTTP %d", err, status)
		}
		if frag != "" && !strings.Contains(apiErr.Message, frag) {
			t.Fatalf("message %q does not mention %q", apiErr.Message, frag)
		}
	}
	_, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 3, Scheme: "nope"})
	check(err, http.StatusBadRequest, "unknown scheme")
	_, err = c.Submit(ctx, service.JobRequest{Plan: testPlan()})
	check(err, http.StatusBadRequest, "device count")
	_, err = c.Submit(ctx, service.JobRequest{Plan: memtest.Plan{Name: "empty", ClockNs: 10}, Devices: 1})
	check(err, http.StatusBadRequest, "no memories")
	_, err = c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 1, Delivery: "sideways"})
	check(err, http.StatusBadRequest, "delivery")
	_, err = c.Job(ctx, "job-999999")
	check(err, http.StatusNotFound, "unknown job")
	_, err = c.Cancel(ctx, "job-999999")
	check(err, http.StatusNotFound, "unknown job")
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-999999/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("results for unknown job: HTTP %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/jobs", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: HTTP %d", resp.StatusCode)
	}
}

// TestHealthAndSchemes pins /v1/healthz and /v1/schemes. The raw
// healthz body must carry "resume": true: crash resume is always on,
// and older memtest-coord releases quarantine a worker that reports it
// false or leaves it out.
func TestHealthAndSchemes(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 3, Queue: 5})
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Jobs != 3 || h.Queue != 5 {
		t.Fatalf("health = %+v", h)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	err = json.NewDecoder(resp.Body).Decode(&raw)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if raw["resume"] != true {
		t.Fatalf(`healthz "resume" = %v, want true`, raw["resume"])
	}
	schemes, err := c.Schemes(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range schemes {
		found = found || s == "proposed"
	}
	if !found {
		t.Fatalf("schemes %v missing \"proposed\"", schemes)
	}
}
