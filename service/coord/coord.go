// Package coord shards fleet diagnosis jobs across a pool of memtestd
// worker nodes. The coordinator speaks the exact wire API of a single
// memtestd (it implements service.Backend, so service.NewServer serves
// it unchanged): clients submit one job, and the coordinator splits
// its device range into contiguous shards, dispatches each shard as an
// ordered first_device range job on a worker, and merges the worker
// streams back into one spool in device order. Per-device seeds derive
// from absolute device indices, so the merged stream is byte-identical
// to the same job run on one node.
//
// Failure handling layers on the single-node machinery instead of
// reinventing it: worker streams are self-healing client reconnects
// (a worker restart mid-shard resumes via the worker's own crash
// resume and heals invisibly), a worker dead past the reconnect budget
// has its shard's missing remainder re-dispatched to a healthy worker
// at first_device = shard lo + merged, and the coordinator persists
// its own manifest and merged spool through service/store, so a
// coordinator restart recovers the shard table and re-attaches to the
// worker jobs, re-merging only the missing suffix.
package coord

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/memtest"
	"repro/service"
	"repro/service/client"
	"repro/service/store"
)

// Config sizes a Coordinator.
type Config struct {
	// Workers seeds the worker membership table, as base URLs. The set
	// is mutable at runtime via AddWorker / RemoveWorker (the
	// POST/DELETE /v1/workers routes), so an empty seed is allowed —
	// jobs just fail to dispatch until a worker joins.
	Workers []string
	// HTTP overrides the http.Client used for every worker call; nil
	// selects http.DefaultClient.
	HTTP *http.Client
	// Jobs is the concurrent-merge worker count (default 2); Queue the
	// bounded backlog beyond them (default 16).
	Jobs  int
	Queue int
	// MinShard floors the devices per shard (default 64): a job is
	// split into min(workers, devices/MinShard) shards, at least one,
	// so tiny jobs do not pay dispatch overhead per handful of devices.
	MinShard int
	// Redispatches is the per-shard budget of moves to a new worker
	// after a stream failed past the reconnect schedule (default 3).
	Redispatches int
	// Backoff shapes each shard stream's reconnect schedule; the zero
	// value selects the client defaults.
	Backoff client.Backoff
	// ProbeTimeout bounds one worker health probe (default 2s).
	ProbeTimeout time.Duration
	// ProbeInterval is the background prober's re-probe cadence for a
	// healthy worker (default 2s). Dispatch and healthz read the cached
	// result — neither ever blocks on a live probe.
	ProbeInterval time.Duration
	// ProbeBackoffMax caps the per-worker exponential probe backoff a
	// failing worker accumulates (default 30s).
	ProbeBackoffMax time.Duration
	// QuarantineAfter is how many consecutive probe failures — or
	// active->down flaps — move a worker to quarantined (default 3),
	// where pick skips it until RejoinAfter consecutive clean probes.
	QuarantineAfter int
	// RejoinAfter is the consecutive clean probes a quarantined worker
	// needs to rejoin the active set (default 2).
	RejoinAfter int
	// StealThreshold enables straggler work-stealing when positive: a
	// shard whose unmerged remainder exceeds StealThreshold times the
	// fleet's median shard remainder — with an idle active worker
	// available — has that remainder re-split via the shard planner and
	// dispatched as new ordered range jobs, the superseded worker job
	// cancelled. The monitor sizes up a running job's shards once a
	// second. Zero disables stealing.
	StealThreshold float64
	// Store persists the coordinator's own manifests and merged spools.
	// Nil selects in-memory (jobs die with the process); a disk store
	// makes coordinated jobs survive coordinator restarts.
	Store store.Store
	// RetainJobs / RetainBytes cap retained finished jobs, exactly as
	// on the single-node manager. Zero keeps all.
	RetainJobs  int
	RetainBytes int64
	// Metrics, when non-nil, receives the coordinator's instruments —
	// shard dispatch and re-dispatch, merged lines and merge lag, the
	// self-healing stream totals and the per-worker fleet view — for
	// the /metrics endpoint. Nil disables instrumentation.
	Metrics *obs.Registry
	// Logger receives structured lifecycle events (accepted, started,
	// shard dispatched / re-dispatched, finished) with job= and shard=
	// context. Nil discards them.
	Logger *slog.Logger
}

// withDefaults fills the coordinator's own defaults; the job table
// defaults Jobs and Queue.
func (c Config) withDefaults() Config {
	if c.MinShard <= 0 {
		c.MinShard = 64
	}
	if c.Redispatches <= 0 {
		c.Redispatches = 3
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 30 * time.Second
	}
	if c.ProbeBackoffMax < c.ProbeInterval {
		c.ProbeBackoffMax = c.ProbeInterval
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 3
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 2
	}
	return c
}

// Coordinator is memtest-coord's backend: the shared job table, whose
// run function dispatches shards and merges their streams, plus the
// worker registry. It implements service.Backend.
type Coordinator struct {
	*service.JobTable
	cfg Config
	reg *registry
	// metrics is never nil; with Config.Metrics unset its instruments
	// are nil no-ops. meter feeds the rolling merged-devices/s gauge;
	// streamStats is shared by every shard stream.
	metrics     *coordMetrics
	log         *slog.Logger
	meter       obs.Meter
	streamStats client.StreamStats
	// stealRounds is the steal monitor's tick source: it calls round
	// once per tick until ctx ends. New sets stealEvery.
	stealRounds func(ctx context.Context, round func())
	// ctx scopes the prober and worker joins; Close cancels it.
	ctx    context.Context
	stop   context.CancelFunc
	prober sync.WaitGroup
}

// New seeds and sweeps the worker membership table, recovers any
// stored jobs, and starts the merge workers plus the background
// prober that owns worker health from here on. Unreachable workers are
// tolerated — the prober keeps re-probing them with backoff. Call
// Close to stop the coordinator and release the store.
func New(cfg Config) (*Coordinator, error) {
	return newCoordinator(cfg, stealEvery)
}

// newCoordinator is New with the steal monitor's tick source supplied.
func newCoordinator(cfg Config, stealRounds func(ctx context.Context, round func())) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	log := cfg.Logger
	if log == nil {
		log = obs.Discard()
	}
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:         cfg,
		reg:         newRegistry(cfg.Workers, cfg.HTTP, cfg),
		metrics:     newCoordMetrics(cfg.Metrics),
		log:         log,
		stealRounds: stealRounds,
		ctx:         ctx,
		stop:        stop,
	}
	c.reg.sweep(ctx)
	t, err := service.NewJobTable(service.Config{
		Jobs: cfg.Jobs, Queue: cfg.Queue, Store: cfg.Store,
		RetainJobs: cfg.RetainJobs, RetainBytes: cfg.RetainBytes,
		Metrics: cfg.Metrics, Logger: log,
	}, service.JobHooks{Metrics: c.metrics.job, Run: c.run, Plan: c.plan})
	if err != nil {
		stop()
		return nil, err
	}
	c.JobTable = t
	c.registerGauges(cfg.Metrics)
	for _, w := range c.reg.list() {
		c.registerWorkerGauges(w)
	}
	c.prober.Add(1)
	go func() {
		defer c.prober.Done()
		c.reg.prober(ctx)
	}()
	t.Start()
	return c, nil
}

// Close stops the prober and closes the job table. It is idempotent.
func (c *Coordinator) Close() {
	c.stop()
	c.JobTable.Close()
	c.prober.Wait()
}

// planWorkers is the shard-sizing input: the summed configured pools
// of the active workers, so down and quarantined workers count zero
// and a busy one counts in full. An idle sample can be a probe
// interval old, which would make the plan random, and stragglers are
// the steal monitor's job. Falls back to the active count when no
// worker reports a pool, and to 1 when the whole fleet is dark (the
// job then waits on dispatch).
func (c *Coordinator) planWorkers() int {
	views, pools, _ := c.reg.snapshot()
	if pools <= 0 {
		for _, v := range views {
			if v.Healthy {
				pools++
			}
		}
	}
	return max(pools, 1)
}

// AddWorker joins a memtestd node to the fleet by base URL. It is
// idempotent; a fresh join is probed inline so the returned view (and
// the next dispatch) reflects the worker's actual state.
func (c *Coordinator) AddWorker(rawURL string) (service.WorkerHealth, error) {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return service.WorkerHealth{}, err
	}
	if c.ctx.Err() != nil {
		return service.WorkerHealth{}, service.ErrShuttingDown
	}
	w, fresh := c.reg.add(u)
	if fresh {
		c.registerWorkerGauges(w)
		c.reg.probeOne(c.ctx, w)
		v := w.view(time.Now())
		c.log.Info("worker joined", "worker", u, "state", v.State, "error", v.Error)
		return v, nil
	}
	return w.view(time.Now()), nil
}

// RemoveWorker drops a worker from the fleet. Shards currently
// dispatched to it are not interrupted here — their streams fail the
// membership lookup and re-dispatch to the survivors.
func (c *Coordinator) RemoveWorker(rawURL string) error {
	u, err := normalizeWorkerURL(rawURL)
	if err != nil {
		return err
	}
	w := c.reg.remove(u)
	if w == nil {
		return fmt.Errorf("%w: %q", service.ErrUnknownWorker, rawURL)
	}
	c.unregisterWorkerGauges(u)
	c.log.Info("worker removed", "worker", u)
	return nil
}

// Workers returns the cached per-worker fleet view — the same rows
// Health carries, served from the prober's cache.
func (c *Coordinator) Workers() []service.WorkerHealth {
	views, _, _ := c.reg.snapshot()
	return views
}

// plan lays out a job's shard table on Submit, and rebases a recovered
// one onto the merged spool's line count: the spool is authoritative,
// because a crash between an append and the next shard-boundary
// checkpoint leaves Merged stale. The resumed merge then re-attaches to
// the recorded worker jobs for only the missing suffix. Any requested
// delivery resumes — shards always run ordered and merge in device
// order, so the merged spool is a device prefix regardless.
func (c *Coordinator) plan(st *service.JobStatus) {
	if len(st.Shards) == 0 {
		st.Shards = planShards(st.FirstDevice, st.Devices, c.planWorkers(), c.cfg.MinShard)
	}
	rebaseMerged(st.Shards, st.Completed)
}

// run is the coordinator's job run: dispatch and ordered merge, with
// the steal monitor alongside. Worker jobs of incomplete shards are
// cancelled when the merge fails, so an abandoned job does not leave
// workers diagnosing devices nobody will merge.
func (c *Coordinator) run(ctx context.Context, sj *service.Job, start func(workers int) bool) error {
	if !start(0) {
		return nil
	}
	j := &job{Job: sj}
	if j.Resume {
		c.log.Info("job started", "job", j.ID, "shards", j.shardCount(), "resume_from", j.ResumeFrom, "devices", j.Req.Devices)
	} else {
		c.log.Info("job started", "job", j.ID, "shards", j.shardCount(), "devices", j.Req.Devices)
	}
	if c.cfg.StealThreshold > 0 {
		// The steal monitor lives exactly as long as this run: the run
		// context is cancelled once the job ends.
		go c.stealRounds(ctx, func() { c.maybeSteal(ctx, j) })
	}
	err := c.merge(ctx, j)
	if err != nil {
		c.cancelWorkerJobs(j.Snapshot().Shards)
	}
	return err
}

// Diagnose forwards the one-shot to an active worker: the coordinator
// never diagnoses in-process, so /v1/diagnose capacity is the fleet's.
func (c *Coordinator) Diagnose(ctx context.Context, req service.JobRequest) (*memtest.Result, error) {
	if _, err := req.Resolve(); err != nil {
		return nil, err
	}
	w, err := c.reg.pick(nil, "")
	if err != nil {
		return nil, fmt.Errorf("%w: no active worker: %v", service.ErrShuttingDown, err)
	}
	res, err := w.cli.Diagnose(ctx, req)
	if err != nil {
		return nil, forwardErr(err)
	}
	return res, nil
}

// forwardErr translates a worker-call failure into the sentinel the
// server maps onto the matching HTTP status: worker 429s stay 429,
// worker 5xx and transport failures become 500, anything else is the
// client's mistake (400).
func forwardErr(err error) error {
	var api *client.APIError
	if errors.As(err, &api) {
		switch {
		case api.StatusCode == http.StatusTooManyRequests:
			return fmt.Errorf("%w: %s", service.ErrDiagnoseBusy, api.Message)
		case api.StatusCode >= 500:
			return fmt.Errorf("%w: %s", service.ErrDiagnose, api.Message)
		}
		return fmt.Errorf("coord: worker: %s", api.Message)
	}
	return fmt.Errorf("%w: %v", service.ErrDiagnose, err)
}

// Health reports the coordinator's own capacity and load plus the
// per-worker fleet view; FleetWorkers and IdleWorkers aggregate the
// active workers' pools. The fleet view is the prober's cache — a
// healthz scrape never fans out worker probes.
func (c *Coordinator) Health() service.Health {
	views, fleetWorkers, idle := c.reg.snapshot()
	h := c.JobTable.Health()
	h.FleetWorkers = fleetWorkers
	h.IdleWorkers = idle
	h.Workers = views
	h.DevicesPerSec = c.meter.Rate()
	return h
}
