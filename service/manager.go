package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"

	"repro/internal/obs"
	"repro/memtest"
	"repro/service/store"
)

// Typed service errors; the server maps them onto HTTP statuses.
var (
	// ErrQueueFull: the bounded backlog is full (HTTP 429).
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDiagnoseBusy: every one-shot diagnosis slot is taken
	// (HTTP 429).
	ErrDiagnoseBusy = errors.New("service: diagnose capacity exhausted")
	// ErrUnknownJob: no job with that ID (HTTP 404).
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrShuttingDown: the manager no longer accepts work (HTTP 503).
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrBadDevices: a job submission without a positive device count.
	ErrBadDevices = errors.New("service: job needs a positive device count")
	// ErrBadFirstDevice: a job submission with a negative first_device.
	ErrBadFirstDevice = errors.New("service: first_device must be non-negative")
	// ErrBadDelivery: a job submission whose delivery is not "",
	// "ordered" or the deprecated alias "unordered".
	ErrBadDelivery = errors.New("service: invalid delivery mode")
	// ErrDiagnose: a one-shot diagnosis run itself failed (HTTP 500) —
	// the request was fine, the engine was not.
	ErrDiagnose = errors.New("service: diagnosis failed")
	// ErrStorage: the job store failed (HTTP 500) — e.g. the data
	// directory became unwritable mid-job.
	ErrStorage = errors.New("service: job storage")
	// ErrJobTimeout: the job ran past its requested timeout_sec
	// deadline. It appears (wrapped, with the configured timeout) as
	// the distinct error string of an expired job, whose spooled
	// prefix stays streamable.
	ErrJobTimeout = errors.New("service: job deadline exceeded")
	// ErrBadTimeout: a job submission with a negative timeout_sec.
	ErrBadTimeout = errors.New("service: timeout_sec must be non-negative")
	// ErrUnknownWorker: a membership request named a worker URL the
	// coordinator does not have (HTTP 404).
	ErrUnknownWorker = errors.New("service: unknown worker")
	// ErrBadWorkerURL: a membership request with an unusable worker URL
	// (HTTP 400).
	ErrBadWorkerURL = errors.New("service: bad worker url")
)

// Config sizes a Manager; NewJobTable reads its lifecycle fields for
// either daemon.
type Config struct {
	// Jobs is the scheduler worker count — the maximum number of jobs
	// diagnosing concurrently. Zero defaults to 2.
	Jobs int
	// Queue is the bounded backlog beyond the running jobs; a Submit
	// while it is full fails with ErrQueueFull. Zero defaults to 16.
	Queue int
	// FleetWorkers is the shared device-worker capacity lent out to
	// jobs as they start: a job starting on an otherwise idle manager
	// borrows the whole pool, one starting alongside queued work takes
	// its fair split of what is still available, and every grant is
	// returned when the job finishes. A job never gets less than one
	// worker, so a saturated pool oversubscribes by at most one worker
	// per running job instead of stalling. Zero defaults to GOMAXPROCS.
	FleetWorkers int
	// Store persists job manifests and result spools. Nil selects an
	// in-memory store: jobs die with the process, exactly the pre-
	// persistence behaviour. With a disk store (store.NewDisk), jobs
	// survive restarts — NewManager recovers the directory on startup,
	// and a job the previous process died with resumes: only its missing
	// device suffix re-runs, so the final stream is byte-identical to a
	// crash-free run.
	Store store.Store
	// RetainJobs caps how many finished (done, failed or cancelled)
	// jobs are kept; the oldest are evicted — removed from the job
	// table and the store — once the cap is exceeded. Zero keeps all.
	RetainJobs int
	// RetainBytes caps the total bytes of spooled results across all
	// jobs; oldest finished jobs are evicted until the total fits.
	// Running jobs count toward the total but are never evicted. Zero
	// keeps all.
	RetainBytes int64
	// Metrics, when non-nil, receives the manager's instruments —
	// queue depth, jobs by state, device throughput, spool traffic,
	// resume and retention counters — for the /metrics endpoint. Nil
	// disables instrumentation entirely: every hot-path update
	// degrades to a nil check, so an unmetered manager pays nothing.
	Metrics *obs.Registry
	// Logger receives structured job lifecycle events (accepted,
	// started, finished, resumed, evicted) with job= context. Nil
	// discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.Queue <= 0 {
		c.Queue = 16
	}
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Manager is memtestd's backend: the shared job table, the fleet-worker
// ledger its run function draws from, and the one-shot diagnosis
// slots. One Manager backs one Server.
type Manager struct {
	*JobTable
	// metrics is never nil; with Config.Metrics unset its instruments
	// are nil no-ops. meter feeds the rolling devices/s gauge healthz
	// reports even without a registry.
	metrics *metrics
	meter   obs.Meter
	// diagSem bounds concurrent one-shot diagnoses to cfg.Jobs, so
	// /v1/diagnose cannot bypass the capacity the scheduler enforces
	// for jobs.
	diagSem chan struct{}

	// Guarded by the table's mu, so a grant sees the backlog it splits
	// with. avail is FleetWorkers minus the grants lent to running jobs;
	// the 1-worker floor can push it negative (bounded
	// oversubscription). resumeDevicesRerun sums the resumed suffixes.
	avail              int
	resumeDevicesRerun int64
}

// NewManager recovers cfg.Store (an in-memory store when nil), starts
// cfg.Jobs scheduler workers and returns the ready manager; see
// NewJobTable for recovery. A resumed job's final stream is
// byte-identical to a crash-free run. Call Close to stop the manager
// and release the store.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	st := cfg.Store
	if st == nil {
		st = store.NewMem()
	}
	x := newMetrics(cfg.Metrics)
	if cfg.Metrics != nil {
		// Only a metered manager pays the decorator indirection.
		st = measuredStore{Store: st, x: x}
	}
	cfg.Store = st
	m := &Manager{
		metrics: x,
		diagSem: make(chan struct{}, cfg.Jobs),
		avail:   cfg.FleetWorkers,
	}
	t, err := NewJobTable(cfg, JobHooks{Metrics: x.job, Run: m.run})
	if err != nil {
		return nil, err
	}
	m.JobTable = t
	m.registerGauges(cfg.Metrics)
	t.Start()
	return m, nil
}

// StartDiagnose claims a one-shot diagnosis slot; it fails with
// ErrDiagnoseBusy when all cfg.Jobs slots are in flight, and with
// ErrShuttingDown after Close. The returned context derives from ctx
// but is also cancelled when the manager shuts down, so an in-flight
// diagnosis aborts on Close just like a job. The returned release
// must be called when the diagnosis ends.
func (m *Manager) StartDiagnose(ctx context.Context) (context.Context, func(), error) {
	if m.baseCtx.Err() != nil {
		return nil, nil, ErrShuttingDown
	}
	select {
	case m.diagSem <- struct{}{}:
		dctx, cancel := context.WithCancel(ctx)
		stop := context.AfterFunc(m.baseCtx, cancel)
		release := func() {
			stop()
			cancel()
			<-m.diagSem
		}
		return dctx, release, nil
	default:
		return nil, nil, fmt.Errorf("%w (capacity %d)", ErrDiagnoseBusy, m.cfg.Jobs)
	}
}

// claimWorkers grants a starting job its fleet-worker share: the
// available capacity split evenly with the jobs still queued behind
// it, capped by the job's device count and its requested worker limit,
// with a floor of one. The grant is deducted from the ledger until
// releaseWorkers returns it.
func (m *Manager) claimWorkers(j *Job) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	share := m.avail / (1 + len(m.backlog))
	// A resume only has the missing suffix left to fan out.
	if remaining := j.Req.Devices - j.ResumeFrom; share > remaining {
		share = remaining
	}
	if j.Req.Workers > 0 && j.Req.Workers < share {
		share = j.Req.Workers
	}
	share = max(share, 1)
	m.avail -= share
	m.metrics.workerGrants.Add(int64(share))
	return share
}

// observeDevice is the per-device fleet-worker hook memtestd installs
// on every session: one atomic counter bump and one meter tick per
// diagnosed device, allocation-free (pinned by the memtest observer
// alloc test).
func (m *Manager) observeDevice(int) {
	m.metrics.devicesDiagnosed.Inc()
	m.meter.Add(1)
}

func (m *Manager) releaseWorkers(n int) {
	m.mu.Lock()
	m.avail += n
	m.mu.Unlock()
}

// run is the manager's job run: it claims a fleet-worker grant and
// spools Session.AppendFleetRange's result lines (the full range for a
// fresh job, the missing suffix for a resume) in device order. The
// fleet workers encode the lines, so this loop only appends them.
func (m *Manager) run(ctx context.Context, j *Job, start func(workers int) bool) error {
	granted := m.claimWorkers(j)
	defer m.releaseWorkers(granted)
	if !start(granted) {
		return nil
	}
	if j.Resume {
		m.log.Info("job started", "job", j.ID, "workers", granted, "resume_from", j.ResumeFrom, "devices", j.Req.Devices)
	} else {
		m.log.Info("job started", "job", j.ID, "workers", granted, "devices", j.Req.Devices)
	}
	// The session is built at start time, not submit time, so the
	// worker grant reflects the load of the moment it runs. The device
	// observer feeds the live throughput instruments.
	session, err := j.Req.session(granted, memtest.WithDeviceObserver(m.observeDevice))
	if err != nil {
		return err
	}
	// A fresh job runs its full range (offset by first_device when it
	// is a shard of a larger fleet); a resume re-runs only the missing
	// suffix, appending to the spooled prefix — the final stream is
	// byte-identical to a crash-free run.
	lo := j.Req.FirstDevice
	if j.Resume {
		lo += j.ResumeFrom
		m.mu.Lock()
		m.resumeDevicesRerun += int64(j.Req.Devices - j.ResumeFrom)
		m.mu.Unlock()
	}
	// One append per line: the store copies (memory) or batches (disk)
	// it, since the worker's buffer is recycled once this returns.
	return session.AppendFleetRange(ctx, lo, j.Req.FirstDevice+j.Req.Devices, func(_ int, line []byte) error {
		j.Lock()
		err := j.AppendLocked(line)
		j.Unlock()
		if err != nil {
			return err
		}
		m.metrics.devicesCompleted.Inc()
		return nil
	})
}

// Health reports configured capacity, current load and capability;
// memtest-coord sizes shards and picks steal targets from its pool
// counts.
func (m *Manager) Health() Health {
	h := m.JobTable.Health()
	m.mu.Lock()
	h.IdleWorkers = max(m.avail, 0)
	h.ResumeDevicesRerun = m.resumeDevicesRerun
	m.mu.Unlock()
	h.Diagnosing = len(m.diagSem)
	h.FleetWorkers = m.cfg.FleetWorkers
	h.DevicesPerSec = m.meter.Rate()
	return h
}

// Diagnose runs one device synchronously under a context that follows
// both ctx (a disconnecting client aborts the engines directly) and
// the manager's lifetime (shutdown aborts in-flight one-shots instead
// of blocking the drain). One-shots draw from their own cfg.Jobs-sized
// slot pool, so they are capacity-bounded like jobs; overload fails
// with ErrDiagnoseBusy. A run the engine itself fails wraps
// ErrDiagnose; a run aborted by shutdown wraps ErrShuttingDown.
func (m *Manager) Diagnose(ctx context.Context, req JobRequest) (*memtest.Result, error) {
	// One-shots run a single device, so the fleet-worker pool is not
	// involved; the session only needs the plan and options validated.
	session, err := req.session(1)
	if err != nil {
		return nil, err
	}
	dctx, release, err := m.StartDiagnose(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := session.RunAll(dctx)
	switch {
	case err == nil:
		return res, nil
	case ctx.Err() != nil:
		return nil, ctx.Err()
	case errors.Is(err, context.Canceled):
		// The manager shut down under the request.
		return nil, fmt.Errorf("%w: diagnosis aborted", ErrShuttingDown)
	default:
		return nil, fmt.Errorf("%w: %v", ErrDiagnose, err)
	}
}
