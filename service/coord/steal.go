package coord

import (
	"context"
	"sort"
	"time"

	"repro/service"
)

// stealInterval is the steal monitor's cadence: how often it sizes up
// a running job's shards.
const stealInterval = time.Second

// stealEvery is the steal monitor's tick source: it runs one steal
// round per stealInterval until ctx ends. A job's run starts it with a
// round bound to that job (ctx is the run context), so the monitor
// lives exactly as long as the run. A round only ever takes work that
// provably has not been merged: the commit re-checks the shard under
// the job lock, so a remainder that moved while the steal was being
// planned is left alone.
func stealEvery(ctx context.Context, round func()) {
	t := time.NewTicker(stealInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			round()
		}
	}
}

// shardRemainders sizes each shard's unmerged work. The shard the
// merge loop is draining right now is measured merge-side (its Merged
// counter advances live); a shard whose stream has not been reached
// yet is measured by polling its worker job's completed count — the
// work exists, it just has not streamed — and a shard whose worker
// cannot even report (down, removed) counts as fully remaining, which
// is what makes the monitor rescue ranges parked on dead workers.
func (c *Coordinator) shardRemainders(ctx context.Context, shards []service.ShardStatus, drainIdx int) []int {
	rem := make([]int, len(shards))
	for i, sh := range shards {
		size := sh.Hi - sh.Lo
		if sh.Merged >= size {
			continue // complete: remainder 0
		}
		rem[i] = size - sh.Merged
		if i == drainIdx || sh.JobID == "" {
			continue
		}
		done := 0
		if w := c.reg.byURL(sh.Worker); w != nil {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
			st, err := w.cli.Job(pctx, sh.JobID)
			cancel()
			if err == nil {
				// The worker job's line k is device DispatchLo+k, so its
				// completed count maps onto the shard's device range here.
				done = sh.DispatchLo - sh.Lo + st.Completed
			}
		}
		rem[i] = max(size-max(done, sh.Merged), 0)
	}
	return rem
}

// maybeSteal runs one steal round: find the straggler, and if its
// remainder dwarfs the fleet median while idle capacity sits unused,
// re-split that remainder via the shard planner, dispatch the pieces as
// new ordered range jobs, and cancel the superseded worker job. A
// straggler that has merged lines shrinks to its merge point; one that
// has merged none is replaced by the pieces outright, so the table
// never holds an empty shard. Absolute-index seeding keeps the merged
// stream byte-identical: the stolen shards produce exactly the lines
// the straggler would have.
func (c *Coordinator) maybeSteal(ctx context.Context, j *job) {
	j.Lock()
	if j.Status.State != service.StateRunning {
		j.Unlock()
		return
	}
	shards := append([]service.ShardStatus(nil), j.Status.Shards...)
	drainIdx := j.drainIdx
	j.Unlock()
	for _, sh := range shards {
		if sh.Merged < sh.Hi-sh.Lo && sh.JobID == "" {
			return // a dispatch or re-dispatch is in flight; sizing would race it
		}
	}

	rem := c.shardRemainders(ctx, shards, drainIdx)
	vi, worst := -1, 0
	for i, r := range rem {
		if r > worst {
			vi, worst = i, r
		}
	}
	if vi < 0 || worst < 2 {
		return // nothing worth splitting
	}
	sorted := append([]int(nil), rem...)
	sort.Ints(sorted)
	median := sorted[(len(sorted)-1)/2]
	if float64(worst) <= c.cfg.StealThreshold*float64(median) {
		return // the worst shard is within the lag budget
	}
	victim := shards[vi]
	targets, idle := c.reg.stealTargets(victim.Worker)
	if len(targets) == 0 {
		return // no idle capacity to steal onto
	}

	// Plan and dispatch the stolen sub-ranges before touching the shard
	// table: if the victim turns out to have moved, the stolen jobs are
	// cancelled and nothing changed.
	cut := victim.Lo + victim.Merged
	plan := planShards(cut, victim.Hi-cut, max(idle, len(targets)), c.cfg.MinShard)
	stolen := make([]service.ShardStatus, 0, len(plan))
	dispatched := 0
	for k, p := range plan {
		sh := service.ShardStatus{Lo: p.Lo, Hi: p.Hi, Stolen: true}
		w := targets[k%len(targets)]
		if st, err := w.cli.Submit(ctx, c.shardRequest(j, p.Lo, p.Hi)); err == nil {
			sh.Worker, sh.JobID, sh.DispatchLo = w.url, st.ID, p.Lo
			dispatched++
		} else {
			c.log.Warn("steal dispatch refused, leaving sub-range for the merge loop",
				"job", j.ID, "worker", w.url, "lo", p.Lo, "hi", p.Hi, "error", err)
		}
		stolen = append(stolen, sh)
	}
	if dispatched == 0 {
		return // every target refused; nothing changed, retry next tick
	}

	// Commit: the victim must still be exactly the shard the plan was
	// built from — same range, same worker job, merge point unmoved. A
	// healthy stream that merged even one line in the meantime aborts
	// the steal, so only genuinely stalled remainders ever move.
	j.Lock()
	committed := false
	var interrupt context.CancelFunc
	if j.Status.State == service.StateRunning && vi < len(j.Status.Shards) {
		v := &j.Status.Shards[vi]
		if v.Hi == victim.Hi && v.JobID == victim.JobID && v.Lo+v.Merged == cut {
			keep := vi // nothing merged: the stolen pieces replace the victim
			if cut > v.Lo {
				v.Hi = cut // the victim shard is now complete at its merge point
				keep++
			}
			tail := append(stolen, j.Status.Shards[vi+1:]...)
			j.Status.Shards = append(j.Status.Shards[:keep], tail...)
			j.Status.Steals++
			j.Persist() //nolint:errcheck // the next persist (or recovery's rebase) repairs a missed write
			committed = true
			if j.drainIdx == vi && j.drainCancel != nil {
				// Un-park the merge loop's drain of the superseded stream.
				interrupt = j.drainCancel
			}
		}
	}
	j.Unlock()
	if !committed {
		c.cancelWorkerJobs(stolen)
		return
	}
	c.metrics.shardSteals.Inc()
	c.log.Info("straggler remainder stolen",
		"job", j.ID, "shard", vi, "worker", victim.Worker, "cut", cut, "hi", victim.Hi,
		"pieces", len(stolen), "dispatched", dispatched, "remainder", worst, "median", median)
	if interrupt != nil {
		interrupt()
	}
	c.cancelWorkerJobs([]service.ShardStatus{victim}) // superseded
}
