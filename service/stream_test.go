package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/memtest"
	"repro/service"
	"repro/service/store"
)

// TestFollowerWakeAllocatesNothing: once a follower has caught up, each
// wake — one appended line read back from the spool, emitted and
// flushed — allocates nothing beyond the store's own Append, on the
// memory store (which copies the line) and on the disk store. Each
// count is the least of twenty wakes: the reader pool drops a quarter
// of its Puts under -race.
func TestFollowerWakeAllocatesNothing(t *testing.T) {
	line := []byte(`{"device":0,"seed":1,"result":null}`)
	stores := map[string]func() store.Store{
		"mem": func() store.Store { return store.NewMem() },
		"disk": func() store.Store {
			d, err := store.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	least := func(f func()) uint64 {
		n := ^uint64(0)
		for range 20 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			n = min(n, after.Mallocs-before.Mallocs)
		}
		return n
	}
	for name, open := range stores {
		t.Run(name, func(t *testing.T) {
			// The store's own cost of one Append, with no follower.
			spool, err := open().Create("job-append", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			appendOnly := least(func() {
				if err := spool.Append(line); err != nil {
					t.Fatal(err)
				}
			})

			// A job whose run appends one line per step.
			step := make(chan struct{})
			tbl, err := service.NewJobTable(service.Config{Jobs: 1, Queue: 1, Store: open()}, service.JobHooks{
				Run: func(_ context.Context, j *service.Job, start func(int) bool) error {
					if !start(1) {
						return nil
					}
					for range step {
						j.Lock()
						err := j.AppendLocked(line)
						j.Unlock()
						if err != nil {
							return err
						}
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			tbl.Start()
			defer tbl.Close()
			st, err := tbl.Submit(service.JobRequest{Plan: testPlan(), Devices: 1})
			if err != nil {
				t.Fatal(err)
			}
			woke := make(chan struct{})
			followed := make(chan error, 1)
			go func() {
				_, err := tbl.FollowBatches(context.Background(), st.ID, 0,
					func([]byte) error { return nil },
					func() error { woke <- struct{}{}; return nil })
				followed <- err
			}()
			wake := func() {
				select {
				case step <- struct{}{}:
				case err := <-followed:
					t.Fatalf("follower ended early: %v", err)
				}
				select {
				case <-woke:
				case err := <-followed:
					t.Fatalf("follower ended early: %v", err)
				}
			}
			wake() // the first wake fills the pools and indexes the spool
			withFollower := least(wake)
			close(step)
			if err := <-followed; err != nil {
				t.Fatal(err)
			}
			if withFollower != appendOnly {
				t.Errorf("append plus follower wake: %d allocs, append alone %d; want the wake to add none", withFollower, appendOnly)
			}
		})
	}
}

// failAfterStore wraps a Store; once armed, each job's reads deliver
// `left` more lines in total and then fail mid-batch.
type failAfterStore struct {
	store.Store
	left *atomic.Int64
}

func (s failAfterStore) Create(id string, m []byte) (store.Job, error) {
	j, err := s.Store.Create(id, m)
	if err != nil {
		return nil, err
	}
	return failAfterJob{j, s.left}, nil
}

type failAfterJob struct {
	store.Job
	left *atomic.Int64
}

func (j failAfterJob) Read(from, to int, emit func([]byte) error) error {
	return j.Job.Read(from, to, func(line []byte) error {
		if j.left.Add(-1) < 0 {
			return errors.New("induced spool failure")
		}
		return emit(line)
	})
}

// TestSpoolFailureMidBatchDeliversEmittedLines: a spool that fails
// part-way through a follower's batch still delivers every line it
// emitted before the failure — they sit in the stream's buffer, not
// yet flushed — and then the {"error": ...} envelope.
func TestSpoolFailureMidBatchDeliversEmittedLines(t *testing.T) {
	left := &atomic.Int64{}
	left.Store(1 << 30)
	m, err := service.NewManager(service.Config{Jobs: 1, Queue: 2, Store: failAfterStore{store.NewMem(), left}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(service.NewServer(m))
	t.Cleanup(func() { ts.Close(); m.Close() })
	req := service.JobRequest{Plan: testPlan(), Devices: 5, Seed: 3}
	st, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Follow(context.Background(), st.ID, 0, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	left.Store(3)
	want := localLines(t, req)[:3]
	got := rawStream(t, ts, st.ID)
	if len(got) != 4 || !strings.Contains(got[3], `"error"`) || !strings.Contains(got[3], "job storage") {
		t.Fatalf("stream over a spool failing after 3 lines = %d lines, want 3 results and the storage error:\n%s", len(got), strings.Join(got, "\n"))
	}
	for i, line := range want {
		if got[i] != line {
			t.Fatalf("line %d differs from the local run:\n got %s\nwant %s", i, got[i], line)
		}
	}
}

// flushFailWriter is a ResponseWriter whose writes land in a buffer and
// whose flush fails, as one to a reset connection does.
type flushFailWriter struct {
	header http.Header
	body   bytes.Buffer
}

func (w *flushFailWriter) Header() http.Header         { return w.header }
func (w *flushFailWriter) WriteHeader(int)             {}
func (w *flushFailWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *flushFailWriter) FlushError() error           { return errors.New("connection reset by peer") }

// TestFlushFailureCancelsOnDisconnect: with output buffered, a dead
// reader surfaces as a failed flush rather than a failed write. That
// still counts as the reader going away — the job is cancelled under
// cancel_on_disconnect — and not as a storage failure, so no error
// envelope is written.
func TestFlushFailureCancelsOnDisconnect(t *testing.T) {
	c, m, _ := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	e := newBlockEngine(t, "block-flushfail")
	st, err := m.Submit(service.JobRequest{Plan: testPlan(), Devices: 3, Workers: 1, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t)
	e.release <- struct{}{} // one device finishes; the follower has a line to flush

	w := &flushFailWriter{header: http.Header{}}
	r := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+st.ID+"/results?cancel_on_disconnect=true", nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		service.NewServer(m).ServeHTTP(w, r)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler never noticed the failed flush")
	}
	waitState(t, c, st.ID, service.StateCancelled)
	if lines := strings.Split(strings.TrimSpace(w.body.String()), "\n"); len(lines) != 1 || strings.Contains(lines[0], `"error"`) {
		t.Fatalf("handler wrote %q, want the one device line and no error envelope", w.body.String())
	}
}

// TestCaughtUpFollowerSeesEachLine: a reader that has caught up with a
// running job receives each new line before the next one is appended —
// the stream flushes after each wake's lines, not when its buffer
// fills or the job ends.
func TestCaughtUpFollowerSeesEachLine(t *testing.T) {
	_, m, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	e := newBlockEngine(t, "block-caughtup")
	st, err := m.Submit(service.JobRequest{Plan: testPlan(), Devices: 3, Workers: 1, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	// On failure, free the blocked engine before the server closes.
	t.Cleanup(func() { m.Cancel(st.ID) })
	e.awaitStart(t)
	// The reader runs in the background while the devices are released.
	lines := make(chan string)
	go func() {
		defer close(lines)
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 16<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	for i := range 3 {
		// Device i is released; device i+1 stays blocked until the
		// reader has seen line i.
		e.release <- struct{}{}
		select {
		case line, ok := <-lines:
			if !ok || !strings.HasPrefix(line, `{"device":`) {
				t.Fatalf("line %d = %q (stream open: %v), want a device result", i, line, ok)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("line %d never reached the caught-up reader", i)
		}
	}
	if line, ok := <-lines; ok {
		t.Fatalf("stream continued past the job's end: %q", line)
	}
}

// TestResultsHeadersBeforeFirstLine: a results request for a job that
// has not finished device 0 gets its 200 and headers straight away, so
// a client with ResponseHeaderTimeout can read a healthy slow job; the
// lines follow once the devices finish.
func TestResultsHeadersBeforeFirstLine(t *testing.T) {
	_, m, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 4})
	e := newBlockEngine(t, "block-headers")
	st, err := m.Submit(service.JobRequest{Plan: testPlan(), Devices: 3, Workers: 1, Scheme: e.name})
	if err != nil {
		t.Fatal(err)
	}
	// On failure, free the blocked engine before the server closes.
	t.Cleanup(func() { m.Cancel(st.ID) })
	e.awaitStart(t)
	tr := ts.Client().Transport.(*http.Transport).Clone()
	tr.ResponseHeaderTimeout = time.Second
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatalf("results request before device 0 finished: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	for range 3 {
		e.release <- struct{}{}
	}
	sc := bufio.NewScanner(resp.Body)
	n := 0
	for ; sc.Scan(); n++ {
		if !strings.HasPrefix(sc.Text(), `{"device":`) {
			t.Fatalf("line %d = %q, want a device result", n, sc.Text())
		}
	}
	if err := sc.Err(); err != nil || n != 3 {
		t.Fatalf("read %d lines (%v), want 3", n, err)
	}
}

// TestClientResultsOwnTheirStorage: every value client.Results yields
// owns its storage, so results kept past their yield — and grown by
// the caller — still equal json.Unmarshal of their own lines.
func TestClientResultsOwnTheirStorage(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 2})
	req := service.JobRequest{Plan: testPlan(), Devices: 70, Seed: 5, DRF: true}
	st, err := c.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var kept []memtest.DeviceResult
	for dr, err := range c.Results(context.Background(), st.ID) {
		if err != nil {
			t.Fatal(err)
		}
		// Growing one array must not reach into another line's, or into
		// a neighbour in the same line.
		for i := range dr.Result.Memories {
			g := &dr.Result.Memories[i]
			_ = append(g.Located, memtest.Cell{Addr: -1, Bit: -1})
		}
		kept = append(kept, dr)
	}
	lines := rawStream(t, ts, st.ID)
	if len(kept) != len(lines) || len(kept) != req.Devices {
		t.Fatalf("decoded %d results, %d raw lines, want %d", len(kept), len(lines), req.Devices)
	}
	for i, line := range lines {
		var want memtest.DeviceResult
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], want) {
			t.Fatalf("result %d kept past its yield differs from json.Unmarshal of its line", i)
		}
	}
}
