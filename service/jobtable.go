package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/service/store"
)

// JobMetrics is the lifecycle instrument set a daemon registers under
// its own names. Nil instruments are no-ops.
type JobMetrics struct {
	Submitted, Done, Failed, Cancelled, Evictions *obs.Counter
	// ReadErrors counts spool reads that failed under a live follower;
	// a follower that went away is its own business, not the store's.
	ReadErrors *obs.Counter
	Duration   *obs.Histogram
}

// JobHooks is what differs between the daemons sharing a JobTable.
type JobHooks struct {
	Metrics JobMetrics
	// Run executes one dequeued job under its run context, which carries
	// the timeout_sec deadline and is cancelled by Cancel and Close. It
	// must call start — with the worker count to record — before doing
	// any work, and return nil at once when start reports false (the job
	// was cancelled while queued). Its error picks the terminal state:
	// nil is done, a cancelled context cancelled, anything else failed.
	Run func(ctx context.Context, j *Job, start func(workers int) bool) error
	// Plan, when set, fills in daemon-specific status before a job is
	// enqueued: on Submit, and on a recovered job about to resume (its
	// Completed then holds the spooled line count).
	Plan func(st *JobStatus)
}

// Job is one submitted fleet job: its request, its result spool, and
// the plumbing that lets any number of readers follow the spool while
// the run function appends to it. ID, Req, Resume and ResumeFrom are
// immutable once the job is enqueued; Status is guarded by the job lock.
type Job struct {
	ID  string
	Req JobRequest // zero for recovered jobs whose manifest carries none
	// Resume marks a job re-enqueued after a restart; ResumeFrom is the
	// device index its run restarts at — the spooled whole-line count
	// after any torn tail was truncated.
	Resume     bool
	ResumeFrom int
	Status     JobStatus

	spool     store.Job
	mu        sync.Mutex
	cond      *sync.Cond
	cancelRun context.CancelFunc // set while running
	cancelled bool               // cancel requested (before or during the run)
}

func newJob(id string, spool store.Job) *Job {
	j := &Job{ID: id, spool: spool}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// Lock and Unlock guard Status, Persist and AppendLocked.
func (j *Job) Lock()   { j.mu.Lock() }
func (j *Job) Unlock() { j.mu.Unlock() }

// Snapshot copies the job's status, shard table included.
func (j *Job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.Status
	st.Shards = append([]ShardStatus(nil), j.Status.Shards...)
	return st
}

// manifest is the durable form of a job: its wire status plus the
// original request a restarted daemon needs to resume it. The request
// rides in the manifest, not in API responses — job listings stay lean.
type manifest struct {
	JobStatus
	Request *JobRequest `json:"request,omitempty"`
}

// manifestBytes renders the job's durable manifest. Call with the job
// lock held.
func (j *Job) manifestBytes() ([]byte, error) {
	m := manifest{JobStatus: j.Status}
	if j.Req.Devices > 0 {
		m.Request = &j.Req
	}
	return json.Marshal(m)
}

// Persist writes the job's current status into its spool manifest.
// Call with the job lock held.
func (j *Job) Persist() error {
	m, err := j.manifestBytes()
	if err != nil {
		return err
	}
	if err := j.spool.WriteManifest(m); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	return nil
}

// start transitions queued -> running with its granted worker count;
// it reports false when the job was cancelled while still queued.
func (j *Job) start(cancel context.CancelFunc, workers int, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelled {
		return false
	}
	j.Status.State = StateRunning
	j.Status.Workers = workers
	j.Status.Started = &now
	j.cancelRun = cancel
	j.Persist() //nolint:errcheck // a failing manifest write must not kill a runnable job; the spool is authoritative
	j.cond.Broadcast()
	return true
}

// AppendLocked spools one result line and wakes followers. Call with
// the job lock held. A spool failure aborts the job: results the
// service cannot retain must not silently vanish from late readers.
func (j *Job) AppendLocked(line []byte) error {
	if err := j.spool.Append(line); err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	j.Status.Completed++
	j.cond.Broadcast()
	return nil
}

// end moves the job to a terminal state, persists the final manifest
// and wakes followers; it reports false when the job had already ended.
// Call with the job lock held.
func (j *Job) end(state State, err error, now time.Time) bool {
	if j.Status.State.Terminal() {
		return false
	}
	j.Status.State = state
	if err != nil {
		j.Status.Error = err.Error()
	}
	j.Status.Finished = &now
	j.cancelRun = nil
	j.Persist() //nolint:errcheck // best effort: recovery marks an unfinished manifest failed anyway
	j.cond.Broadcast()
	return true
}

// finish is end for a job that may hold spooled results. The spool is
// flushed first — the result-boundary flush that makes a terminal
// manifest trustworthy — and WriteManifest implementations flush again
// themselves, so either layer alone upholds the ordering.
func (j *Job) finish(state State, err error, now time.Time) bool {
	j.spool.Flush() //nolint:errcheck // a failing flush surfaces via the manifest write or the next Read
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.end(state, err, now)
}

// JobTable is the job lifecycle memtestd's Manager and memtest-coord's
// Coordinator share: submission, the bounded backlog and its scheduler
// workers, lookup, cancellation, followers, store recovery, retention
// and shutdown. Both daemons embed it and plug in what differs through
// JobHooks.
type JobTable struct {
	cfg   Config
	hooks JobHooks
	store store.Store
	log   *slog.Logger
	// started anchors the process uptime healthz and /metrics report.
	started time.Time

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu sync.Mutex
	// backlog is the bounded queue (cap cfg.Queue). A slice, not a
	// channel, so Cancel can remove a queued job immediately instead
	// of leaving a dead entry occupying a slot; qcond signals workers
	// when it fills.
	backlog []*Job
	qcond   *sync.Cond
	jobs    map[string]*Job
	order   []string
	seq     int
	running int
	closed  bool
	// Recovery activity since this process started: jobs restored from
	// the store, and the subset re-enqueued to resume.
	jobsRecovered int
	jobsResumed   int
}

// NewJobTable recovers the stored jobs into a new table and applies the
// retention caps; Start then launches the scheduler workers and Close
// stops them and releases the store. It reads Jobs, Queue, Store,
// RetainJobs, RetainBytes, Metrics and Logger from cfg, with the Config
// defaults.
func NewJobTable(cfg Config, hooks JobHooks) (*JobTable, error) {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	ctx, stop := context.WithCancel(context.Background())
	t := &JobTable{
		cfg:     cfg,
		hooks:   hooks,
		store:   st,
		log:     log,
		started: time.Now(),
		baseCtx: ctx,
		stop:    stop,
		jobs:    map[string]*Job{},
	}
	t.qcond = sync.NewCond(&t.mu)
	if err := t.recover(); err != nil {
		stop()
		return nil, err
	}
	t.enforceRetention()
	cfg.Metrics.GaugeFunc("uptime_seconds", "Seconds since this process started.", func() float64 {
		return time.Since(t.started).Seconds()
	})
	return t, nil
}

// Metrics returns the registry the daemon was configured with (nil
// when unmetered). The server mounts GET /metrics over it.
func (t *JobTable) Metrics() *obs.Registry { return t.cfg.Metrics }

// Start launches the scheduler workers; call it once.
func (t *JobTable) Start() {
	for range t.cfg.Jobs {
		t.wg.Add(1)
		go t.worker()
	}
}

// recover rebuilds the job table from the store. Store IDs sort in
// creation order (zero-padded sequence numbers), and the sequence
// counter resumes past the highest recovered ID so new jobs never
// collide with stored ones. Finished jobs replay byte-identically. A
// job the previous process died with is re-enqueued as resuming when
// its request allows it (see resumable) — the run re-does only the
// missing device suffix — and otherwise, or when the spool's line count
// is unreadable, recovers as failed with its spooled prefix still
// streamable.
func (t *JobTable) recover() error {
	ids, err := t.store.Jobs()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	for _, id := range ids {
		spool, err := t.store.Open(id)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		raw, err := spool.Manifest()
		if err != nil {
			return fmt.Errorf("%w: %v", ErrStorage, err)
		}
		var mf manifest
		if err := json.Unmarshal(raw, &mf); err != nil {
			return fmt.Errorf("%w: manifest for %s: %v", ErrStorage, id, err)
		}
		j := newJob(id, spool)
		j.Status = mf.JobStatus
		st := &j.Status
		st.ID = id // the file name is authoritative
		st.Recovered = true
		t.jobsRecovered++
		if st.State.Terminal() {
			// Terminal jobs keep the manifest's Completed (persisted
			// after the last append) and stay unindexed until somebody
			// reads them, so recovery costs O(jobs), not O(spooled bytes).
			t.log.Debug("job recovered", "job", id, "state", string(st.State))
		} else {
			// The previous process died with this job unfinished.
			// Everything already spooled still streams; counting the
			// spooled lines here also truncates a torn final append.
			lines, linesErr := spool.Lines()
			if linesErr == nil {
				st.Completed = min(lines, st.Devices)
			}
			switch {
			case linesErr != nil:
				// The spooled count is unknown (the index failed), so
				// neither resuming nor reporting a retained count is
				// safe — a resume from an assumed 0 would duplicate
				// whatever prefix is actually intact. Completed keeps
				// the manifest's last persisted value.
				st.Error = fmt.Sprintf("interrupted by server restart; result spool unreadable: %v", linesErr)
			case mf.Request != nil && mf.Request.Devices > 0 && t.resumable(*mf.Request):
				// Re-enqueue: the per-device seeds derive from (job
				// seed, device index), so the missing suffix [K, N) is
				// exactly reproducible — the resumed stream is byte-
				// identical to a crash-free run.
				j.Req = *mf.Request
				j.Resume, j.ResumeFrom = true, st.Completed
				if t.hooks.Plan != nil {
					t.hooks.Plan(st)
				}
				st.State = StateResuming
				st.Resumed, st.ResumedFrom = true, st.Completed
				st.Error = ""
				st.Started, st.Finished = nil, nil
				t.jobsResumed++
			default:
				st.Error = fmt.Sprintf("interrupted by server restart; %d/%d device results retained", st.Completed, st.Devices)
			}
			if j.Resume {
				t.log.Info("job recovered, resuming", "job", id, "resume_from", j.ResumeFrom, "devices", st.Devices)
			} else {
				now := time.Now()
				st.State, st.Finished = StateFailed, &now
				t.log.Warn("interrupted job recovered as failed", "job", id, "error", st.Error)
			}
			j.mu.Lock()
			err := j.Persist()
			j.mu.Unlock()
			if err != nil {
				return err
			}
		}
		var seq int
		if _, err := fmt.Sscanf(id, "job-%d", &seq); err == nil && seq > t.seq {
			t.seq = seq
		}
		t.jobs[id] = j
		t.order = append(t.order, id)
		if j.Resume {
			// Straight onto the backlog (recovery runs before the
			// scheduler workers start, and resumed jobs may exceed the
			// submission queue cap — they already held a slot once).
			t.backlog = append(t.backlog, j)
		}
	}
	return nil
}

// resumable reports whether a recovered request can drive a resumed
// run. Its stored delivery must be "ordered", which Submit records for
// every job: a manifest without it was written by an older release,
// whose default unordered spool holds whichever devices finished
// first, not the device prefix a resume extends. The request must also
// still resolve — the engine may have been registered by a binary that
// no longer runs. An unresumable request degrades to the
// failed-with-partials recovery.
func (t *JobTable) resumable(req JobRequest) bool {
	_, err := req.Resolve()
	return err == nil && req.Delivery == "ordered"
}

func (t *JobTable) worker() {
	defer t.wg.Done()
	for {
		t.mu.Lock()
		for len(t.backlog) == 0 && !t.closed {
			t.qcond.Wait()
		}
		if t.closed {
			t.mu.Unlock()
			return
		}
		j := t.backlog[0]
		t.backlog = t.backlog[1:]
		t.mu.Unlock()
		t.run(j)
	}
}

// run executes one dequeued job through the run hook under a per-job
// context — with a deadline when timeout_sec is positive — and maps its
// outcome onto the terminal state.
func (t *JobTable) run(j *Job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Req.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(t.baseCtx, time.Duration(j.Req.TimeoutSec*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(t.baseCtx)
	}
	defer cancel()
	started := false
	err := t.hooks.Run(ctx, j, func(workers int) bool {
		if started = j.start(cancel, workers, time.Now()); started {
			t.mu.Lock()
			t.running++
			t.mu.Unlock()
		}
		return started
	})
	if !started {
		return // cancelled while queued; Cancel already ended it
	}
	defer func() {
		t.mu.Lock()
		t.running--
		t.mu.Unlock()
	}()
	state := StateFailed
	switch {
	case err == nil:
		state = StateDone
	case errors.Is(err, context.DeadlineExceeded):
		// The distinct deadline error: ErrJobTimeout plus the
		// configured timeout, never conflated with a cancellation.
		err = fmt.Errorf("%w (timeout_sec=%g)", ErrJobTimeout, j.Req.TimeoutSec)
	case errors.Is(err, context.Canceled):
		state = StateCancelled
	}
	j.finish(state, err, time.Now())
	t.ended(j)
	t.enforceRetention()
}

// ended accounts for one terminal transition: every run outcome, cancel
// while queued and backlog shutdown passes through here exactly once.
func (t *JobTable) ended(j *Job) {
	st := j.Snapshot()
	x := t.hooks.Metrics
	switch st.State {
	case StateDone:
		x.Done.Inc()
	case StateCancelled:
		x.Cancelled.Inc()
	default:
		x.Failed.Inc()
	}
	args := []any{"job", j.ID, "state", string(st.State), "completed", st.Completed, "devices", st.Devices}
	if st.Started != nil && st.Finished != nil {
		d := st.Finished.Sub(*st.Started).Seconds()
		x.Duration.Observe(d)
		args = append(args, "duration_sec", d)
	}
	lvl := slog.LevelInfo
	if st.State == StateFailed {
		lvl = slog.LevelWarn
		args = append(args, "error", st.Error)
	}
	t.log.Log(t.baseCtx, lvl, "job finished", args...)
}

// Submit validates a job request, assigns it an ID, creates its spool
// and enqueues it. It fails fast: a bad request never occupies a queue
// slot, and a full queue returns ErrQueueFull without blocking.
func (t *JobTable) Submit(req JobRequest) (JobStatus, error) {
	if req.Devices <= 0 {
		return JobStatus{}, fmt.Errorf("%w (got %d)", ErrBadDevices, req.Devices)
	}
	if req.FirstDevice < 0 {
		return JobStatus{}, fmt.Errorf("%w (got %d)", ErrBadFirstDevice, req.FirstDevice)
	}
	if req.TimeoutSec < 0 {
		return JobStatus{}, fmt.Errorf("%w (got %g)", ErrBadTimeout, req.TimeoutSec)
	}
	scheme, err := req.Resolve()
	if err != nil {
		return JobStatus{}, err
	}
	st := JobStatus{
		State: StateQueued, Plan: req.Plan.Name, Scheme: scheme,
		Devices: req.Devices, FirstDevice: req.FirstDevice,
	}
	if t.hooks.Plan != nil {
		t.hooks.Plan(&st)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return JobStatus{}, ErrShuttingDown
	}
	if len(t.backlog) >= t.cfg.Queue {
		return JobStatus{}, fmt.Errorf("%w (capacity %d)", ErrQueueFull, t.cfg.Queue)
	}
	t.seq++
	j := newJob(fmt.Sprintf("job-%06d", t.seq), nil)
	j.Req = req
	j.Req.Delivery = "ordered" // the stream order resumable requires
	st.ID, st.Created = j.ID, time.Now()
	j.Status = st
	mf, err := j.manifestBytes()
	if err != nil {
		return JobStatus{}, err
	}
	// On failure the sequence number is burned, not rolled back: the
	// store cleans up its own partial files, and never reusing an ID
	// means a leftover foreign file cannot wedge every future Submit.
	spool, err := t.store.Create(j.ID, mf)
	if err != nil {
		return JobStatus{}, fmt.Errorf("%w: %v", ErrStorage, err)
	}
	j.spool = spool
	// Snapshot before signalling: a worker may pick the job up (and
	// mutate its status under the job lock) the instant it is enqueued.
	accepted := j.Snapshot()
	t.backlog = append(t.backlog, j)
	t.jobs[j.ID] = j
	t.order = append(t.order, j.ID)
	t.qcond.Signal()
	t.hooks.Metrics.Submitted.Inc()
	args := []any{"job", j.ID, "devices", req.Devices, "plan", req.Plan.Name, "scheme", scheme, "queued", len(t.backlog)}
	if n := len(accepted.Shards); n > 0 {
		args = append(args, "shards", n)
	}
	t.log.Info("job accepted", args...)
	return accepted, nil
}

// lookup resolves a job ID.
func (t *JobTable) lookup(id string) (*Job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Status returns a job's current state.
func (t *JobTable) Status(id string) (JobStatus, error) {
	j, err := t.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	st := j.Snapshot()
	st.FillProgress(time.Now())
	return st, nil
}

// Jobs lists every retained job in submission order, recovered jobs
// included.
func (t *JobTable) Jobs() []JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]JobStatus, len(t.order))
	now := time.Now()
	for i, id := range t.order {
		out[i] = t.jobs[id].Snapshot()
		out[i].FillProgress(now)
	}
	return out
}

// Cancel stops a job: a queued job is pulled out of the backlog (its
// slot frees immediately) and finishes as cancelled, a running one has
// its run context cancelled and finishes once the run unwinds.
// Cancelling a terminal job is a no-op. The returned status is the
// state right after the request took effect — a running job may still
// report "running" until its run returns.
func (t *JobTable) Cancel(id string) (JobStatus, error) {
	j, err := t.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	// A queued job leaves the backlog at once, freeing its slot.
	t.mu.Lock()
	if i := slices.Index(t.backlog, j); i >= 0 {
		t.backlog = slices.Delete(t.backlog, i, i+1)
	}
	t.mu.Unlock()
	j.mu.Lock()
	j.cancelled = true
	ended := false
	switch j.Status.State {
	case StateQueued, StateResuming:
		ended = j.end(StateCancelled, context.Canceled, time.Now())
	case StateRunning:
		j.cancelRun()
	}
	st := j.Status
	st.Shards = slices.Clone(st.Shards) // the merge keeps editing the live table
	j.mu.Unlock()
	if ended {
		t.ended(j)
	}
	return st, nil
}

// Follow replays a job's result lines starting at line `offset` (0
// replays everything) and then tails live appends, calling emit once
// per line, until the job reaches a terminal state or ctx is
// cancelled. It returns the job's terminal error message (empty for
// done jobs) and the follower's own error (context cancellation, a
// spool read failure or an emit failure), exactly one of which is
// meaningful.
func (t *JobTable) Follow(ctx context.Context, id string, offset int, emit func([]byte) error) (string, error) {
	return t.FollowBatches(ctx, id, offset, emit, nil)
}

// FollowBatches is Follow with a per-wake callback: after each wake's
// batch of lines has been emitted, and before the follower waits again
// or returns, flush (when not nil) runs once. A buffered writer emits
// into its buffer and drains it in flush, so a caught-up follower
// still sees every line before the next append, while a follower that
// is behind pays one drain per batch, not per line. A flush error is
// the follower's own, like an emit error. A follower's wake allocates
// nothing.
func (t *JobTable) FollowBatches(ctx context.Context, id string, offset int, emit func([]byte) error, flush func() error) (string, error) {
	j, err := t.lookup(id)
	if err != nil {
		return "", err
	}
	// cond.Wait cannot watch a context, so a cancelled context
	// broadcasts the condition to unblock waiters.
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.cond.Broadcast()
	})
	defer stop()

	// Distinguish the reader going away (emit failed — nothing left to
	// tell it) from the spool failing under a live reader (wrapped in
	// ErrStorage so the server can terminate the stream with an
	// explicit error line instead of truncating it silently).
	var emitErr error
	read := func(line []byte) error {
		if e := emit(line); e != nil {
			emitErr = e
			return e
		}
		return nil
	}
	next := max(offset, 0)
	for {
		j.mu.Lock()
		for next >= j.Status.Completed && !j.Status.State.Terminal() && ctx.Err() == nil {
			j.cond.Wait()
		}
		n := j.Status.Completed
		state, jobErr := j.Status.State, j.Status.Error
		j.mu.Unlock()

		// Lines below n are immutable, so the spool read happens
		// outside the lock and never stalls the appender.
		if n > next {
			err := j.spool.Read(next, n, read)
			if emitErr != nil {
				return "", emitErr
			}
			if err != nil {
				t.hooks.Metrics.ReadErrors.Inc()
				return "", fmt.Errorf("%w: %v", ErrStorage, err)
			}
			next = n
			if flush != nil {
				if err := flush(); err != nil {
					return "", err
				}
			}
		}
		if state.Terminal() {
			return jobErr, nil
		}
		if err := ctx.Err(); err != nil {
			return "", err
		}
	}
}

// enforceRetention evicts the oldest finished jobs until the retention
// caps hold: at most RetainJobs finished jobs, at most RetainBytes of
// spooled results in total. Queued, resuming and running jobs are
// never evicted — only terminal states qualify, so a job mid-resume
// can never lose the spooled prefix its missing suffix will append to
// (their bytes still count toward the total). Evicted jobs vanish from
// the job table and the store; followers already streaming one keep
// their handle.
func (t *JobTable) enforceRetention() {
	if t.cfg.RetainJobs <= 0 && t.cfg.RetainBytes <= 0 {
		return
	}
	t.mu.Lock()
	var total int64
	finished := 0
	for _, id := range t.order {
		j := t.jobs[id]
		total += j.spool.Size()
		if j.Snapshot().State.Terminal() {
			finished++
		}
	}
	var evict []string
	for _, id := range t.order {
		over := (t.cfg.RetainJobs > 0 && finished > t.cfg.RetainJobs) ||
			(t.cfg.RetainBytes > 0 && total > t.cfg.RetainBytes)
		if !over {
			break
		}
		j := t.jobs[id]
		if !j.Snapshot().State.Terminal() {
			continue
		}
		evict = append(evict, id)
		finished--
		total -= j.spool.Size()
		delete(t.jobs, id)
	}
	if len(evict) > 0 {
		t.hooks.Metrics.Evictions.Add(int64(len(evict)))
		t.order = slices.DeleteFunc(t.order, func(id string) bool { return t.jobs[id] == nil })
	}
	t.mu.Unlock()
	// Store deletion is I/O; do it outside the table lock. The IDs are
	// already invisible to lookups, so a racing Follow either got its
	// handle in time (and keeps streaming) or sees 404.
	for _, id := range evict {
		t.store.Remove(id) //nolint:errcheck // eviction is best effort; a leaked spool is re-listed and re-evicted on restart
		t.log.Debug("job evicted by retention", "job", id)
	}
}

// Health reports the lifecycle half of /v1/healthz — capacity, load,
// recovery activity, uptime and capability — for the daemon to extend.
func (t *JobTable) Health() Health {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Health{
		Jobs: t.cfg.Jobs, Queue: t.cfg.Queue,
		QueuedJobs: len(t.backlog), RunningJobs: t.running,
		JobsRecovered: t.jobsRecovered,
		JobsResumed:   t.jobsResumed,
		UptimeSec:     time.Since(t.started).Seconds(),
		Version:       obs.Version(),
		Resume:        true,
		Durable:       t.store.Durable(),
	}
}

// Close stops accepting submissions, cancels every running job, waits
// for the scheduler workers to unwind, marks the backlog cancelled (so
// every follower's stream terminates) and releases the store. It is
// idempotent.
func (t *JobTable) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	backlog := t.backlog
	t.backlog = nil
	t.qcond.Broadcast()
	t.mu.Unlock()
	t.stop()
	t.wg.Wait()
	for _, j := range backlog {
		// A Cancel racing the shutdown may have ended the job already.
		if j.finish(StateCancelled, ErrShuttingDown, time.Now()) {
			t.ended(j)
		}
	}
	t.store.Close() //nolint:errcheck // nothing left to do with a failing store at shutdown
}
