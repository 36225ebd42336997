package service

import (
	"fmt"
	"time"

	"repro/memtest"
)

// JobRequest is the wire form of a diagnosis submission, shared by
// POST /v1/jobs (fleet jobs) and POST /v1/diagnose (one-shot runs).
// The embedded plan is the same JSON the memtest library and the CLI
// fleet files use.
type JobRequest struct {
	// Plan is the fleet of memories to diagnose.
	Plan memtest.Plan `json:"plan"`
	// Devices is the fleet size — how many deterministically seeded
	// instances of the plan to diagnose. Required for jobs; ignored by
	// /v1/diagnose, which always runs a single device.
	Devices int `json:"devices,omitempty"`
	// FirstDevice offsets the run: the job diagnoses devices
	// [FirstDevice, FirstDevice+Devices) of the fleet instead of
	// [0, Devices). Per-device seeds derive from the absolute device
	// index, so a range job's stream is byte-identical to the same
	// window of a full run — the property memtest-coord relies on to
	// dispatch contiguous shards of one fleet to different workers and
	// concatenate the streams. Defaults to 0 (a whole-fleet job).
	FirstDevice int `json:"first_device,omitempty"`
	// Scheme selects the diagnosis engine by registry name; empty
	// means "proposed".
	Scheme string `json:"scheme,omitempty"`
	// DRF enables data-retention-fault diagnosis (the NWRTM merge for
	// the proposed scheme).
	DRF bool `json:"drf,omitempty"`
	// Seed is the base seed every per-device defect draw derives from;
	// the same (plan, seed) pair always produces the same results.
	Seed int64 `json:"seed"`
	// Workers requests a per-job fleet worker count; the server clamps
	// it to its per-job share of the shared capacity. Zero takes the
	// full share.
	Workers int `json:"workers,omitempty"`
	// Delivery may be empty or "ordered"; every job streams in device
	// order. "unordered" is accepted as a deprecated alias and also
	// streams in device order. Any other value fails with
	// ErrBadDelivery.
	Delivery string `json:"delivery,omitempty"`
	// TimeoutSec, when positive, is the job's run deadline in seconds:
	// a job still streaming devices when it expires fails with a
	// distinct deadline error, its spooled prefix still streamable.
	// The deadline restarts on a crash resume (it bounds one run, not
	// the job's wall-clock lifetime).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
	// Repair, when set, allocates spare repair per memory and reports
	// fleet yield.
	Repair *memtest.Budget `json:"repair,omitempty"`
}

// session builds the memtest session a request describes, clamping the
// fleet worker count to maxWorkers. Extra options (the manager's device
// observer, for one) are appended after the request's own. Errors wrap
// ErrBadDelivery or the memtest sentinel errors, so the server can
// report them as client mistakes (HTTP 400).
func (r JobRequest) session(maxWorkers int, extra ...memtest.Option) (*memtest.Session, error) {
	switch r.Delivery {
	case "", "ordered", "unordered":
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadDelivery, r.Delivery)
	}
	scheme := r.Scheme
	if scheme == "" {
		scheme = "proposed"
	}
	workers := r.Workers
	if workers <= 0 || workers > maxWorkers {
		workers = maxWorkers
	}
	opts := []memtest.Option{
		memtest.WithScheme(scheme),
		memtest.WithSeed(r.Seed),
		memtest.WithWorkers(workers),
	}
	if r.DRF {
		opts = append(opts, memtest.WithDRF())
	}
	if r.Repair != nil {
		opts = append(opts, memtest.WithRepair(*r.Repair))
	}
	opts = append(opts, extra...)
	return memtest.New(r.Plan, opts...)
}

// Resolve validates the request by building (and discarding) a
// session, returning the resolved engine name ("proposed" when Scheme
// is empty). Errors wrap ErrBadDelivery or the memtest sentinel errors,
// so front-ends report them as client mistakes. JobTable.Submit uses it for the
// fail-fast validation both daemons share.
func (r JobRequest) Resolve() (string, error) {
	probe, err := r.session(1)
	if err != nil {
		return "", err
	}
	return probe.Engine().Name(), nil
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: accepted, waiting for a scheduler worker.
	StateQueued State = "queued"
	// StateResuming: recovered from a crash-interrupted run and
	// re-enqueued; a scheduler worker will re-run only the missing
	// device suffix, appending to the spooled prefix. Like queued, it
	// is non-terminal — followers keep waiting, retention never evicts
	// it.
	StateResuming State = "resuming"
	// StateRunning: a worker is streaming devices.
	StateRunning State = "running"
	// StateDone: every device's result is buffered.
	StateDone State = "done"
	// StateFailed: the engine reported an error.
	StateFailed State = "failed"
	// StateCancelled: stopped by DELETE, a disconnecting reader that
	// asked for it, or server shutdown.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final — no more results will
// be appended to the job's stream.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	// ID addresses the job in every /v1/jobs/{id} route.
	ID string `json:"id"`
	// State is the lifecycle position.
	State State `json:"state"`
	// Plan and Scheme echo the submission.
	Plan   string `json:"plan"`
	Scheme string `json:"scheme"`
	// Devices is the requested fleet size; Completed counts device
	// results spooled so far. FirstDevice echoes the submission's range
	// offset: the stream covers devices [FirstDevice,
	// FirstDevice+Devices).
	Devices     int `json:"devices"`
	FirstDevice int `json:"first_device,omitempty"`
	Completed   int `json:"completed"`
	// Workers is the fleet-worker grant the scheduler lent this job
	// when it started: the whole pool on an idle manager, a fair split
	// under load (dynamic sharing — idle job slots lend their workers
	// to running jobs).
	Workers int `json:"workers,omitempty"`
	// Recovered marks a job restored from the data directory by a
	// process that did not create it. A recovered job that was queued
	// or running at crash time resumes (Resumed below); one whose
	// manifest does not record ordered delivery (an unordered job
	// spooled by an older release, whose spool is not a device prefix)
	// reports failed, with the device results spooled before the crash
	// still streamable.
	Recovered bool `json:"recovered,omitempty"`
	// Resumed marks a job whose crash-interrupted run was completed by
	// re-running only the missing device suffix; ResumedFrom is the
	// device index the latest resume started at (the spooled-line
	// count after truncating any torn tail). The final result stream
	// is byte-identical to a crash-free run.
	Resumed     bool `json:"resumed,omitempty"`
	ResumedFrom int  `json:"resumed_from,omitempty"`
	// Error is set for failed and cancelled jobs.
	Error string `json:"error,omitempty"`
	// Shards, on a memtest-coord job, is the per-shard dispatch table:
	// how the coordinator split the device range across workers and how
	// far each shard's merge has progressed. Empty on single-node jobs.
	Shards []ShardStatus `json:"shards,omitempty"`
	// Steals, on a memtest-coord job, counts straggler rescues: each
	// steal re-split one slow shard's unmerged remainder onto idle
	// workers and extended the shard table with the stolen sub-ranges.
	Steals int `json:"steals,omitempty"`
	// Created/Started/Finished are the lifecycle timestamps.
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	// ElapsedSec and DevicesPerSec are live progress, computed per
	// response (never persisted): wall time since Started — still
	// ticking on a running job, frozen at Finished on a terminal one —
	// and Completed over that window.
	ElapsedSec    float64 `json:"elapsed_sec,omitempty"`
	DevicesPerSec float64 `json:"devices_per_sec,omitempty"`
}

// FillProgress computes the response-time progress fields from the
// lifecycle timestamps. Idempotent, cheap, and never persisted — the
// manifest writers marshal the status before any call to it.
func (s *JobStatus) FillProgress(now time.Time) {
	if s.Started == nil {
		return
	}
	end := now
	if s.Finished != nil {
		end = *s.Finished
	}
	s.ElapsedSec = end.Sub(*s.Started).Seconds()
	if s.ElapsedSec > 0 {
		s.DevicesPerSec = float64(s.Completed) / s.ElapsedSec
	}
}

// ShardStatus describes one contiguous device range of a coordinated
// job: which worker holds it, the worker-side job ID, and merge
// progress.
type ShardStatus struct {
	// Lo and Hi are the absolute device range [Lo, Hi) this shard
	// covers.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Worker is the base URL of the worker the shard is currently
	// dispatched to; JobID is the worker-side job. Both are empty until
	// the coordinator dispatches the shard.
	Worker string `json:"worker,omitempty"`
	JobID  string `json:"job_id,omitempty"`
	// DispatchLo is the first device of the current worker job: Lo for
	// the original dispatch, Lo+delivered after a re-dispatch picked up
	// a dead worker's shard mid-range.
	DispatchLo int `json:"dispatch_lo,omitempty"`
	// Merged counts this shard's device results already appended to the
	// coordinator's merged stream; the shard is complete when
	// Lo+Merged == Hi.
	Merged int `json:"merged"`
	// Redispatches counts how many times the shard moved to a new
	// worker after its stream failed past the reconnect budget.
	Redispatches int `json:"redispatches,omitempty"`
	// Stolen marks a shard created by the work-stealing path: its range
	// is a re-split piece of a straggling shard's unmerged remainder,
	// dispatched to an idle worker while the victim shard was shrunk to
	// what it had already merged.
	Stolen bool `json:"stolen,omitempty"`
}

// Health is the /v1/healthz body.
type Health struct {
	// Jobs and Queue echo the manager's configured capacity;
	// QueuedJobs and RunningJobs are the current load. Diagnosing
	// counts in-flight one-shot /v1/diagnose runs, which draw from
	// their own Jobs-sized slot pool.
	Jobs        int `json:"jobs"`
	Queue       int `json:"queue"`
	QueuedJobs  int `json:"queued_jobs"`
	RunningJobs int `json:"running_jobs"`
	Diagnosing  int `json:"diagnosing"`
	// FleetWorkers is the configured device-worker pool; IdleWorkers
	// is what is not currently lent to running jobs (0 while the pool
	// is fully lent out or oversubscribed by the 1-worker floor).
	FleetWorkers int `json:"fleet_workers"`
	IdleWorkers  int `json:"idle_workers"`
	// Recovery activity since this process started: JobsRecovered
	// counts every job restored from the data directory, JobsResumed
	// the subset re-enqueued to complete a crash-interrupted run, and
	// ResumeDevicesRerun the devices those resumes had to re-run (the
	// missing suffixes, summed) — together the operator's view of what
	// a restart actually cost.
	JobsRecovered      int   `json:"jobs_recovered"`
	JobsResumed        int   `json:"jobs_resumed"`
	ResumeDevicesRerun int64 `json:"resume_devices_rerun"`
	// UptimeSec is seconds since this process started; Version is the
	// build's module version plus VCS revision when stamped;
	// DevicesPerSec is the rolling device diagnosis rate over the last
	// few seconds, maintained even when metrics are disabled.
	UptimeSec     float64 `json:"uptime_sec"`
	Version       string  `json:"version,omitempty"`
	DevicesPerSec float64 `json:"devices_per_sec"`
	// Capability, not load: Durable reports whether the job store
	// survives restarts (a -data-dir disk store). Resume is always true:
	// crash resume can no longer be turned off, but the field stays on
	// the wire because older memtest-coord releases quarantine any
	// worker whose healthz reports it false (or leaves it out).
	Resume  bool `json:"resume"`
	Durable bool `json:"durable"`
	// Workers, on a memtest-coord /v1/healthz, is the per-worker view
	// of the fleet the coordinator shards over. Empty on single-node
	// daemons.
	Workers []WorkerHealth `json:"workers,omitempty"`
}

// WorkerHealth is a coordinator's view of one memtestd worker. It is
// the cached state the background prober maintains: healthz scrapes
// and shard dispatch read it without issuing a single worker HTTP
// probe.
type WorkerHealth struct {
	// URL is the worker's base URL.
	URL string `json:"url"`
	// Healthy reports whether the worker is active: its last probe
	// succeeded and it is not quarantined. Error holds the last probe
	// failure.
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// State is the prober's membership state: "active" (dispatchable),
	// "down" (recent probe failed; re-probed with backoff),
	// "quarantined" (flapping or failing probes; needs consecutive
	// clean probes to rejoin) or "unknown" (never probed).
	State string `json:"state,omitempty"`
	// ProbeAgeSec is seconds since the worker's last completed health
	// probe, or -1 before the first — the freshness of everything
	// above.
	ProbeAgeSec float64 `json:"probe_age_sec"`
}

// WorkerRef is the body of POST /v1/workers — the membership join
// request naming one memtestd base URL.
type WorkerRef struct {
	URL string `json:"url"`
}

// ErrorBody is the JSON error envelope every non-2xx response — and
// the terminal line of a failed job's NDJSON stream — carries.
type ErrorBody struct {
	Error string `json:"error"`
}

func (e ErrorBody) String() string { return fmt.Sprintf("service error: %s", e.Error) }
