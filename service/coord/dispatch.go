package coord

import (
	"context"
	"fmt"
	"time"

	"repro/service"
	"repro/service/client"
)

// job is one run of a coordinated job: the shared job record, whose
// status carries the shard table, plus the drain the merge loop is on.
// The steal monitor fires drainCancel to un-park a drain whose
// remainder it just re-assigned (a stalled stream would otherwise never
// notice its shard shrank). Guarded by the job lock.
type job struct {
	*service.Job
	drainIdx    int
	drainCancel context.CancelFunc
}

// shard returns a copy of shard i's current state.
func (j *job) shard(i int) service.ShardStatus {
	j.Lock()
	defer j.Unlock()
	return j.Status.Shards[i]
}

// shardCount reads the current shard-table length; the table can grow
// mid-merge when a steal re-splits a straggler's remainder.
func (j *job) shardCount() int {
	j.Lock()
	defer j.Unlock()
	return len(j.Status.Shards)
}

// appendShard spools one merged device line for shard i and wakes
// followers. The boundary check, the spool append and the counters are
// one critical section on purpose: the steal monitor moves shard
// boundaries under the job lock, so an append that checked Hi outside
// the lock could spool a line past a freshly shrunk shard and duplicate
// it with the stolen shard's stream. Returns accepted=false when the
// shard is already full (the line belongs to a stolen shard's worker
// job now), full=true when this line completed the shard, and a non-nil
// error only for a spool failure — results the coordinator cannot
// retain must not silently vanish from late readers.
func (j *job) appendShard(i int, line []byte) (accepted, full bool, err error) {
	j.Lock()
	defer j.Unlock()
	sh := &j.Status.Shards[i]
	if sh.Lo+sh.Merged >= sh.Hi {
		return false, true, nil
	}
	if err := j.AppendLocked(line); err != nil {
		return false, false, err
	}
	sh.Merged++
	return true, sh.Lo+sh.Merged >= sh.Hi, nil
}

// setDrain registers the cancel func for the drain attempt on shard i.
func (j *job) setDrain(i int, cancel context.CancelFunc) {
	j.Lock()
	j.drainIdx, j.drainCancel = i, cancel
	j.Unlock()
}

// checkpoint persists the shard table at a shard boundary.
func (j *job) checkpoint() {
	j.Lock()
	j.Persist() //nolint:errcheck // shard-boundary checkpoint; the spool stays authoritative
	j.Unlock()
}

// merge runs one coordinated job end to end: every shard without a
// live worker job is dispatched up front — so the whole fleet computes
// in parallel — and the shards are then drained strictly in device
// order, each line appended to the merged spool as it arrives. The
// merged stream is byte-identical to a single-node run of the same
// request: workers run absolute device ranges (first_device), so
// concatenating their ordered streams is exactly the single stream.
// The drain loop re-reads the table length every step because the
// steal monitor may insert stolen sub-shards behind the drain point.
func (c *Coordinator) merge(ctx context.Context, j *job) error {
	for i := range j.shardCount() {
		sh := j.shard(i)
		if sh.JobID == "" && sh.Lo+sh.Merged < sh.Hi {
			if err := c.dispatch(ctx, j, i, ""); err != nil {
				return err
			}
		}
	}
	for i := 0; i < j.shardCount(); i++ {
		if err := c.drainShard(ctx, j, i); err != nil {
			return err
		}
	}
	return nil
}

// dispatch submits shard i's remaining device range [Lo+Merged, Hi) as
// an ordered job on an active worker, preferring workers other than
// avoid (the one whose stream just failed). Every worker that refuses
// the submission (queue full, mid-restart) joins the round's refused
// set so it cannot be re-picked and re-refused; dispatch fails only
// when no worker outside that set is active.
func (c *Coordinator) dispatch(ctx context.Context, j *job, i int, avoid string) error {
	sh := j.shard(i)
	lo := sh.Lo + sh.Merged
	req := c.shardRequest(j, lo, sh.Hi)
	refused := map[string]bool{}
	var lastErr error
	for {
		w, err := c.reg.pick(refused, avoid)
		if err != nil {
			if lastErr == nil {
				lastErr = err
			}
			break
		}
		st, err := w.cli.Submit(ctx, req)
		if err != nil {
			lastErr = err
			refused[w.url] = true
			if ctx.Err() != nil {
				break
			}
			continue
		}
		j.Lock()
		j.Status.Shards[i].Worker = w.url
		j.Status.Shards[i].JobID = st.ID
		j.Status.Shards[i].DispatchLo = lo
		j.Persist() //nolint:errcheck // the next persist (or recovery's re-dispatch) repairs a missed write
		j.Unlock()
		c.metrics.shardDispatch.Inc()
		c.log.Info("shard dispatched", "job", j.ID, "shard", i, "worker", w.url, "job_id", st.ID, "lo", lo, "hi", sh.Hi)
		return nil
	}
	return fmt.Errorf("coord: dispatch shard [%d,%d): %w", lo, sh.Hi, lastErr)
}

// shardRequest derives the worker job request for the device range
// [lo, hi) of coordinated job j.
func (c *Coordinator) shardRequest(j *job, lo, hi int) service.JobRequest {
	return service.JobRequest{
		Plan:        j.Req.Plan,
		Devices:     hi - lo,
		FirstDevice: lo,
		Scheme:      j.Req.Scheme,
		DRF:         j.Req.DRF,
		Seed:        j.Req.Seed,
		Workers:     j.Req.Workers,
		Delivery:    "ordered", // older workers default to unordered; resume and merge need order
		Repair:      j.Req.Repair,
	}
}

// drainShard streams shard i's worker job into the merged spool until
// the shard is complete. The stream is self-healing (client reconnect
// with offset), so a worker restart mid-shard heals invisibly; a
// stream that still fails — reconnect budget exhausted, the worker job
// lost or failed, a clean end short of the range — re-dispatches the
// missing remainder [Lo+Merged, Hi) to another active worker, up to
// the configured re-dispatch budget. Shard i can change under a
// running stream when the steal monitor re-splits the remainder: its
// Hi shrinks to the merge point or, when it merged nothing, the first
// stolen piece (which starts at the same device) takes its place. So
// every append is bounds-checked atomically (job.appendShard) and the
// shard is re-read after every stream end before any failure handling.
func (c *Coordinator) drainShard(ctx context.Context, j *job, i int) error {
	for {
		sh := j.shard(i)
		if sh.Merged >= sh.Hi-sh.Lo {
			j.checkpoint()
			return nil
		}
		if sh.JobID == "" {
			// Recovered before dispatch, or cleared by a failed stream.
			if err := c.dispatch(ctx, j, i, sh.Worker); err != nil {
				return err
			}
			continue
		}
		var streamErr error
		interrupted := false
		if w := c.reg.byURL(sh.Worker); w == nil {
			streamErr = fmt.Errorf("coord: worker %s no longer a fleet member", sh.Worker)
		} else {
			// Each attempt gets its own cancelable context, registered on
			// the job so the steal monitor can interrupt a drain that is
			// parked on a stalled stream it just stole the remainder of.
			attemptCtx, cancelAttempt := context.WithCancel(ctx)
			j.setDrain(i, cancelAttempt)
			// The worker job's line k is device DispatchLo+k, so the next
			// device this merge needs sits at this offset in its spool.
			offset := sh.Lo + sh.Merged - sh.DispatchLo
			for line, err := range w.cli.RawResults(attemptCtx, sh.JobID,
				client.WithOffset(offset), client.WithReconnect(c.cfg.Backoff),
				client.WithStreamStats(&c.streamStats)) {
				if err != nil {
					streamErr = err
					break
				}
				ok, full, aerr := j.appendShard(i, line)
				if aerr != nil {
					j.setDrain(0, nil)
					cancelAttempt()
					return aerr // own storage failed; re-dispatching cannot help
				}
				if !ok {
					// The shard filled up under us (a steal moved Hi down to
					// the merge point); the line belongs to a stolen shard's
					// worker job now. Stop consuming.
					break
				}
				c.metrics.mergedLines.Inc()
				c.meter.Add(1)
				if full {
					break
				}
			}
			j.setDrain(0, nil)
			interrupted = attemptCtx.Err() != nil && ctx.Err() == nil
			cancelAttempt()
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Re-read before judging the stream: a steal may have shrunk
		// [Lo,Hi) mid-stream, completing the shard regardless of how the
		// stream ended (including the JobError from the superseded worker
		// job being cancelled).
		sh = j.shard(i)
		if sh.Merged >= sh.Hi-sh.Lo {
			j.checkpoint()
			return nil
		}
		if interrupted {
			continue // the steal monitor cut the attempt; re-evaluate
		}
		if streamErr == nil {
			streamErr = fmt.Errorf("coord: worker %s job %s ended %d lines short of shard [%d,%d)",
				sh.Worker, sh.JobID, sh.Hi-sh.Lo-sh.Merged, sh.Lo, sh.Hi)
		}
		j.Lock()
		j.Status.Shards[i].Redispatches++
		redispatches := j.Status.Shards[i].Redispatches
		j.Status.Shards[i].JobID = ""
		j.Persist() //nolint:errcheck // shard-boundary checkpoint; the spool stays authoritative
		j.Unlock()
		c.metrics.shardRedispatch.Inc()
		c.log.Warn("shard stream failed, re-dispatching remainder",
			"job", j.ID, "shard", i, "worker", sh.Worker, "merged", sh.Merged, "redispatches", redispatches, "error", streamErr)
		if redispatches > c.cfg.Redispatches {
			return fmt.Errorf("coord: shard [%d,%d) abandoned after %d re-dispatches: %w",
				sh.Lo, sh.Hi, c.cfg.Redispatches, streamErr)
		}
	}
}

// cancelWorkerJobs best-effort cancels the worker jobs of every
// dispatched, incomplete shard among shards.
func (c *Coordinator) cancelWorkerJobs(shards []service.ShardStatus) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, sh := range shards {
		if sh.JobID == "" || sh.Merged >= sh.Hi-sh.Lo {
			continue
		}
		if w := c.reg.byURL(sh.Worker); w != nil {
			w.cli.Cancel(ctx, sh.JobID) //nolint:errcheck // the job may be done or the worker gone; either is fine
		}
	}
}
