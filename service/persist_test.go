package service_test

// End-to-end persistence tests: disk-spooled jobs surviving a server
// restart, ?offset= pagination, and retention eviction.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/service"
	"repro/service/client"
	"repro/service/store"
)

// diskServer spins a manager over a disk store at dir plus an HTTP
// server; close tears both down (graceful shutdown, NOT a crash).
func diskServer(t *testing.T, dir string, cfg service.Config) (*client.Client, *service.Manager, *httptest.Server) {
	t.Helper()
	st, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	m, err := service.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	return client.New(ts.URL, ts.Client()), m, ts
}

// TestRestartRecovery pins the disk recovery contract: a manager is
// killed mid-job (no Close — its store never learns), the data
// directory is reopened by a fresh manager, and
//
//   - the job that had finished re-streams its results byte-identical
//     to an in-process run,
//   - the job that was running at crash time resumes from its spooled
//     prefix and finishes done, byte-identical to a crash-free run,
//   - new submissions get fresh IDs past the recovered ones.
//
// The failed-with-partials recovery of a job that cannot resume is
// pinned by TestUnorderedJobNeverResumes and
// TestSpoolIndexFaultDegradesToFailed.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One fleet worker runs the devices one at a time in device order,
	// so the two releases below finish exactly devices 0 and 1. With
	// more workers a release can go to device 2 while device 0 still
	// waits, and the ordered stream never reaches two results.
	m1, err := service.NewManager(service.Config{Jobs: 2, Queue: 8, FleetWorkers: 1, Store: stA})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(service.NewServer(m1))
	c1 := client.New(ts1.URL, ts1.Client())
	// The crash is simulated below by closing the *store* (what
	// process death does: file handles and the data-dir flock are
	// released, no manifest is finalized) while m1 is never Closed.
	// Cleanup at test end (after the recovered manager's assertions)
	// releases m1's parked goroutines; its post-crash spool writes
	// fail against the closed store instead of corrupting the new
	// owner's files.
	t.Cleanup(m1.Close)
	defer ts1.Close()
	ctx := context.Background()

	// Job 1 runs to completion before the "crash".
	doneReq := service.JobRequest{Plan: testPlan(), Devices: 4, Seed: 11, Delivery: "ordered", DRF: true}
	doneSt, err := c1.Submit(ctx, doneReq)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c1, doneSt.ID, service.StateDone)

	// Job 2 is mid-flight: a blocking engine lets exactly 2 of its 5
	// devices finish, then parks.
	e := newBlockEngine(t, "block-crash")
	runReq := service.JobRequest{Plan: testPlan(), Devices: 5, Scheme: e.name}
	runSt, err := c1.Submit(ctx, runReq)
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	e.release <- struct{}{}
	e.release <- struct{}{}
	// Wait until both finished devices are spooled (durable), with the
	// engine parked on device 3.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c1.Job(ctx, runSt.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Completed == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never spooled 2 devices: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// "Crash": the store's handles and directory lock vanish as they
	// would on SIGKILL; the wedged manager survives as a zombie that
	// can no longer touch the directory.
	if err := stA.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second store + manager over the same directory.
	c2, m2, ts2 := diskServer(t, dir, service.Config{Jobs: 2, Queue: 8})
	defer func() { ts2.Close(); m2.Close() }()

	// The finished job recovered: done, and its replay is byte-
	// identical to the same seeded plan run in-process.
	recovered, err := c2.Job(ctx, doneSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.State != service.StateDone || !recovered.Recovered || recovered.Completed != 4 {
		t.Fatalf("recovered done job = %+v", recovered)
	}
	got := rawStream(t, ts2, doneSt.ID)
	want := localLines(t, doneReq)
	if len(got) != len(want) {
		t.Fatalf("recovered stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered line %d differs:\nrecovered: %s\nlocal    : %s", i, got[i], want[i])
		}
	}

	// The interrupted job resumes from its two spooled devices. Once the
	// engine lets the rest through, it finishes done, and its stream is
	// byte-identical to a crash-free run.
	resuming, err := c2.Job(ctx, runSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !resuming.Recovered || !resuming.Resumed || resuming.ResumedFrom != 2 {
		t.Fatalf("interrupted job = %+v, want recovered+resumed from device 2", resuming)
	}
	close(e.release)
	resumed := waitState(t, c2, runSt.ID, service.StateDone)
	if resumed.Completed != 5 {
		t.Fatalf("resumed job completed %d devices, want 5", resumed.Completed)
	}
	got = rawStream(t, ts2, runSt.ID)
	want = localLines(t, runReq)
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed line %d differs:\nresumed: %s\nlocal  : %s", i, got[i], want[i])
		}
	}

	// Both recovered jobs appear in the listing, oldest first, and a
	// fresh submission gets the next sequence number, not a collision.
	list, err := c2.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != doneSt.ID || list[1].ID != runSt.ID {
		t.Fatalf("recovered listing = %+v", list)
	}
	fresh, err := c2.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID <= runSt.ID {
		t.Fatalf("fresh ID %q does not advance past recovered %q", fresh.ID, runSt.ID)
	}
	waitState(t, c2, fresh.ID, service.StateDone)
}

// TestResultsOffsetPagination: ?offset=N skips exactly N spooled
// lines, over HTTP and through the client option, and an offset at or
// past the end yields an empty (but valid) stream.
func TestResultsOffsetPagination(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	req := service.JobRequest{Plan: testPlan(), Devices: 6, Seed: 42, Delivery: "ordered"}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, service.StateDone)
	all := localLines(t, req)

	for _, offset := range []int{0, 1, 4, 6, 99} {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/jobs/%s/results?offset=%d", ts.URL, st.ID, offset))
		if err != nil {
			t.Fatal(err)
		}
		lines := readLines(t, resp)
		want := 0
		if offset < len(all) {
			want = len(all) - offset
		}
		if len(lines) != want {
			t.Fatalf("offset %d: got %d lines, want %d", offset, len(lines), want)
		}
		for i, line := range lines {
			if line != all[offset+i] {
				t.Fatalf("offset %d line %d differs:\nwire : %s\nlocal: %s", offset, i, line, all[offset+i])
			}
		}
	}

	// The client option drives the same parameter.
	devices := []int{}
	for dr, err := range c.Results(context.Background(), st.ID, client.WithOffset(4)) {
		if err != nil {
			t.Fatal(err)
		}
		devices = append(devices, dr.Device)
	}
	if len(devices) != 2 || devices[0] != 4 || devices[1] != 5 {
		t.Fatalf("client offset stream devices = %v, want [4 5]", devices)
	}

	// A malformed or negative offset is a client error, not a stream.
	for _, bad := range []string{"-1", "x", "1.5"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/results?offset=" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("offset %q: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

// readLines drains one NDJSON response.
func readLines(t *testing.T, resp *http.Response) []string {
	t.Helper()
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

// listAtMost returns the job listing once it holds at most n jobs (or
// after 10 s): retention evicts just after a job turns done, so a
// listing taken right after waitState may still hold the evicted job.
func listAtMost(t *testing.T, c *client.Client, n int) []service.JobStatus {
	t.Helper()
	var list []service.JobStatus
	eventually(func() bool {
		var err error
		if list, err = c.Jobs(context.Background()); err != nil {
			t.Fatal(err)
		}
		return len(list) <= n
	})
	return list
}

// TestRetentionEvictsOldestCompleted: with -retain-jobs 2, finishing a
// fourth job evicts the oldest finished one — it vanishes from the
// listing and its results return 404 — while newer jobs keep their
// spools.
func TestRetentionEvictsOldestCompleted(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 8, RetainJobs: 2})
	ctx := context.Background()
	var ids []string
	for i := range 4 {
		st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 2, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, st.ID, service.StateDone)
		ids = append(ids, st.ID)
	}
	list := listAtMost(t, c, 2)
	if len(list) != 2 || list[0].ID != ids[2] || list[1].ID != ids[3] {
		t.Fatalf("retained listing = %+v, want the 2 newest (%v)", list, ids[2:])
	}
	for _, id := range ids[:2] {
		if _, err := c.Job(ctx, id); err == nil {
			t.Fatalf("evicted job %s still resolves", id)
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/results")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("evicted job %s results: HTTP %d, want 404", id, resp.StatusCode)
		}
	}
	// The survivors still replay in full.
	if got := rawStream(t, ts, ids[3]); len(got) != 2 {
		t.Fatalf("survivor stream = %d lines, want 2", len(got))
	}
}

// TestRetentionByteCap: with -retain-bytes set below three spools,
// finishing a third job evicts the oldest until the byte budget holds,
// and the evicted job's spool and manifest files are unlinked.
func TestRetentionByteCap(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// First measure one job's spool size with an unlimited manager.
	cM, _, tsM := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	st, err := cM.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 2, Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, cM, st.ID, service.StateDone)
	var spoolBytes int64
	for _, line := range rawStream(t, tsM, st.ID) {
		spoolBytes += int64(len(line)) + 1
	}

	// Byte cap: room for two spools, not three.
	c, m, _ := diskServer(t, dir, service.Config{Jobs: 1, Queue: 8, RetainBytes: 2*spoolBytes + spoolBytes/2})
	defer m.Close()
	var ids []string
	for range 3 {
		st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 2, Seed: 0})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, c, st.ID, service.StateDone)
		ids = append(ids, st.ID)
	}
	list := listAtMost(t, c, 2)
	if len(list) != 2 || list[0].ID != ids[1] || list[1].ID != ids[2] {
		t.Fatalf("byte-capped listing = %+v, want %v", list, ids[1:])
	}
	if _, err := c.Job(ctx, ids[0]); err == nil {
		t.Fatalf("byte-evicted job %s still resolves", ids[0])
	}
	// The table drops an evicted job before its files are unlinked, so
	// the unlink may land just after the listing above.
	for _, suffix := range []string{".ndjson", ".json"} {
		path := filepath.Join(dir, ids[0]+suffix)
		if !eventually(func() bool { _, err := os.Stat(path); return os.IsNotExist(err) }) {
			t.Fatalf("evicted file %s still on disk", path)
		}
	}
}

// TestDynamicWorkerSharing: a job starting on an idle manager borrows
// the whole fleet-worker pool; one starting while the pool is lent out
// gets the 1-worker floor; capacity returns when jobs finish.
func TestDynamicWorkerSharing(t *testing.T) {
	c, _, _ := newTestServer(t, service.Config{Jobs: 2, Queue: 8, FleetWorkers: 8})
	e := newBlockEngine(t, "block-sharing")
	ctx := context.Background()

	a, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 100, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	aSt := waitState(t, c, a.ID, service.StateRunning)
	if aSt.Workers != 8 {
		t.Fatalf("idle-manager job got %d workers, want the whole pool (8)", aSt.Workers)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.FleetWorkers != 8 || h.IdleWorkers != 0 {
		t.Fatalf("health while pool lent out = %+v", h)
	}

	// Second job while the pool is fully lent: floor grant of 1.
	b, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 100, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	bSt := waitState(t, c, b.ID, service.StateRunning)
	if bSt.Workers != 1 {
		t.Fatalf("job under load got %d workers, want the floor (1)", bSt.Workers)
	}

	// Cancel both; once they unwind, the full pool is idle again and
	// the next job borrows all of it.
	for _, id := range []string{a.ID, b.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		waitState(t, c, id, service.StateCancelled)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.IdleWorkers == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never returned: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cJob, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 100, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, c, cJob.ID, service.StateRunning); st.Workers != 8 {
		t.Fatalf("post-release job got %d workers, want 8", st.Workers)
	}
	if _, err := c.Cancel(ctx, cJob.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, cJob.ID, service.StateCancelled)
}

// failReadStore wraps a Store; once tripped, every job's Read fails —
// a deterministic stand-in for a disk fault under a live stream.
type failReadStore struct {
	store.Store
	fail *atomic.Bool
}

func (s failReadStore) Create(id string, m []byte) (store.Job, error) {
	j, err := s.Store.Create(id, m)
	if err != nil {
		return nil, err
	}
	return failReadJob{j, s.fail}, nil
}

func (s failReadStore) Open(id string) (store.Job, error) {
	j, err := s.Store.Open(id)
	if err != nil {
		return nil, err
	}
	return failReadJob{j, s.fail}, nil
}

type failReadJob struct {
	store.Job
	fail *atomic.Bool
}

func (j failReadJob) Read(from, to int, emit func([]byte) error) error {
	if j.fail.Load() {
		return errors.New("induced spool failure")
	}
	return j.Job.Read(from, to, emit)
}

// TestSpoolFailureTerminatesStreamExplicitly: when the spool fails
// under a connected reader, the NDJSON stream ends with an explicit
// {"error": ...} line — never a silent truncation that would read as
// a complete stream.
func TestSpoolFailureTerminatesStreamExplicitly(t *testing.T) {
	fail := &atomic.Bool{}
	m, err := service.NewManager(service.Config{Jobs: 1, Queue: 2, Store: failReadStore{store.NewMem(), fail}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() { ts.Close(); m.Close() })
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, service.StateDone)
	fail.Store(true)
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	lines := readLines(t, resp)
	if len(lines) != 1 || !strings.Contains(lines[0], "job storage") {
		t.Fatalf("stream over failing spool = %v, want one storage-error line", lines)
	}
	// The typed client surfaces it as a JobError, not a clean end.
	var last error
	for _, err := range c.Results(ctx, st.ID) {
		last = err
	}
	var jobErr *client.JobError
	if !errors.As(last, &jobErr) {
		t.Fatalf("client stream error = %v, want JobError", last)
	}
}

// TestGracefulShutdownPersistsCancelled: Close (the SIGTERM path, not
// a crash) finalizes manifests, so a restart recovers the jobs as
// cancelled — not as restart-interrupted failures.
func TestGracefulShutdownPersistsCancelled(t *testing.T) {
	dir := t.TempDir()
	c1, m1, ts1 := diskServer(t, dir, service.Config{Jobs: 1, Queue: 4})
	e := newBlockEngine(t, "block-drain")
	st, err := c1.Submit(context.Background(), service.JobRequest{Plan: testPlan(), Devices: 3, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	ts1.Close()
	m1.Close() // graceful: cancels the run, persists the terminal state

	c2, m2, ts2 := diskServer(t, dir, service.Config{Jobs: 1, Queue: 4})
	defer func() { ts2.Close(); m2.Close() }()
	got, err := c2.Job(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != service.StateCancelled || !got.Recovered {
		t.Fatalf("recovered drained job = %+v, want recovered+cancelled", got)
	}
	if strings.Contains(got.Error, "interrupted by server restart") {
		t.Fatalf("drained job mislabelled as crash-interrupted: %q", got.Error)
	}
}
