package service

import (
	"repro/internal/obs"
	"repro/service/store"
)

// metrics bundles the Manager's hot-path instruments. With a nil
// registry (Config.Metrics unset) every instrument is nil and every
// update is a nil check — the unmetered manager keeps its pre-metrics
// cost, the zero-overhead-when-disabled invariant the obs package
// pins.
type metrics struct {
	job              JobMetrics
	devicesDiagnosed *obs.Counter
	devicesCompleted *obs.Counter
	workerGrants     *obs.Counter
	spoolAppends     *obs.Counter
	spoolBytes       *obs.Counter
	spoolFlushes     *obs.Counter
}

// newMetrics registers the Manager's event-driven instruments; reg may
// be nil (disabled).
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		job: JobMetrics{
			Submitted:  reg.Counter("jobs_submitted_total", "Fleet jobs accepted by Submit."),
			Done:       reg.Counter("jobs_finished_total", "Jobs reaching a terminal state.", "state", "done"),
			Failed:     reg.Counter("jobs_finished_total", "Jobs reaching a terminal state.", "state", "failed"),
			Cancelled:  reg.Counter("jobs_finished_total", "Jobs reaching a terminal state.", "state", "cancelled"),
			Evictions:  reg.Counter("retention_evictions_total", "Finished jobs evicted by the retention caps."),
			ReadErrors: reg.Counter("store_read_errors_total", "Spool reads that failed under a live follower."),
			Duration:   reg.Histogram("job_duration_seconds", "Job wall time from start to terminal state.", obs.DurationBuckets),
		},
		devicesDiagnosed: reg.Counter("devices_diagnosed_total", "Devices diagnosed by fleet workers (compute time, ahead of ordered delivery)."),
		devicesCompleted: reg.Counter("devices_completed_total", "Device results appended to job spools."),
		workerGrants:     reg.Counter("fleet_worker_grants_total", "Fleet workers lent to starting jobs by the ledger, cumulative."),
		spoolAppends:     reg.Counter("store_appends_total", "Result lines appended to the job store."),
		spoolBytes:       reg.Counter("store_appended_bytes_total", "Result bytes appended to the job store, newline included."),
		spoolFlushes:     reg.Counter("store_flushes_total", "Explicit spool flushes (result-boundary durability points)."),
	}
}

// registerGauges wires the scrape-time views of manager state: queue
// depth, jobs by state, the fleet-worker ledger, the rolling device
// rate and the resume counters. Computed at scrape time, these cost
// the hot path nothing.
func (m *Manager) registerGauges(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("jobs_queue_depth", "Jobs waiting in the bounded backlog.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.backlog))
	})
	reg.GaugeFunc("jobs_queue_capacity", "Configured backlog capacity.", func() float64 {
		return float64(m.cfg.Queue)
	})
	for _, state := range []State{StateQueued, StateResuming, StateRunning, StateDone, StateFailed, StateCancelled} {
		reg.GaugeFunc("jobs_state", "Retained jobs by lifecycle state.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			n := 0
			for _, j := range m.jobs {
				if j.Snapshot().State == state {
					n++
				}
			}
			return float64(n)
		}, "state", string(state))
	}
	reg.GaugeFunc("fleet_workers", "Configured fleet-worker pool.", func() float64 {
		return float64(m.cfg.FleetWorkers)
	})
	reg.GaugeFunc("fleet_idle_workers", "Fleet workers not lent to running jobs.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(max(m.avail, 0))
	})
	reg.GaugeFunc("fleet_granted_workers", "Fleet workers currently lent out (oversubscription floor included).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.cfg.FleetWorkers - m.avail)
	})
	reg.GaugeFunc("devices_per_sec", "Rolling device diagnosis rate over the last few seconds.", m.meter.Rate)
	reg.CounterFunc("jobs_recovered_total", "Jobs restored from the data directory at startup.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.jobsRecovered)
	})
	reg.CounterFunc("jobs_resumed_total", "Recovered jobs re-enqueued to resume a crash-interrupted run.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.jobsResumed)
	})
	reg.CounterFunc("resume_devices_rerun_total", "Devices re-run by crash resumes (the missing suffixes, summed).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.resumeDevicesRerun)
	})
}

// measuredStore wraps a store.Store so spool traffic feeds the store_*
// counters. It is only installed when metrics are enabled, so the
// unmetered path keeps the raw store.
type measuredStore struct {
	store.Store
	x *metrics
}

func (s measuredStore) Create(id string, manifest []byte) (store.Job, error) {
	j, err := s.Store.Create(id, manifest)
	if err != nil {
		return nil, err
	}
	return measuredJob{Job: j, x: s.x}, nil
}

func (s measuredStore) Open(id string) (store.Job, error) {
	j, err := s.Store.Open(id)
	if err != nil {
		return nil, err
	}
	return measuredJob{Job: j, x: s.x}, nil
}

// measuredJob counts appends, appended bytes and flushes on one spool.
// Read failures are counted by the follower, which alone knows whether
// the spool or its reader failed (JobMetrics.ReadErrors).
type measuredJob struct {
	store.Job
	x *metrics
}

func (j measuredJob) Append(line []byte) error {
	err := j.Job.Append(line)
	if err == nil {
		j.x.spoolAppends.Inc()
		j.x.spoolBytes.Add(int64(len(line)) + 1)
	}
	return err
}

func (j measuredJob) Flush() error {
	j.x.spoolFlushes.Inc()
	return j.Job.Flush()
}
