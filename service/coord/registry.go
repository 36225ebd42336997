package coord

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/service"
	"repro/service/client"
)

// Worker membership states. pick dispatches only to active workers;
// everything below is cached — reading it never issues a probe.
const (
	// stateUnknown: joined but never probed (the prober is about to).
	stateUnknown = "unknown"
	// stateActive: the last probe found the worker reachable.
	stateActive = "active"
	// stateDown: the last probe failed; the prober retries with
	// per-worker exponential backoff, and one clean probe rejoins.
	stateDown = "down"
	// stateQuarantined: the worker flapped (repeated active->down
	// transitions) or failed too many probes in a row. It needs
	// rejoinAfter consecutive clean probes to return to active — the
	// hysteresis that keeps a flapping worker from bouncing shards.
	stateQuarantined = "quarantined"
)

// worker is one memtestd node in the coordinator's membership table.
// All mutable state belongs to the prober's state machine and is read
// under mu; the url and client are immutable.
type worker struct {
	url string
	cli *client.Client

	mu        sync.Mutex
	state     string
	probed    bool
	lastErr   string
	health    service.Health // last successful probe
	lastProbe time.Time      // when the last probe completed
	nextProbe time.Time      // when the prober is next due (backoff applied)
	strikes   int            // consecutive failed probes
	flaps     int            // active->failed transitions since the last calm streak
	clean     int            // consecutive clean probes
}

// view renders the worker's cached state as the wire type.
func (w *worker) view(now time.Time) service.WorkerHealth {
	w.mu.Lock()
	defer w.mu.Unlock()
	v := service.WorkerHealth{
		URL:         w.url,
		Healthy:     w.state == stateActive,
		Error:       w.lastErr,
		State:       w.state,
		ProbeAgeSec: -1,
	}
	if w.probed {
		v.ProbeAgeSec = now.Sub(w.lastProbe).Seconds()
	}
	return v
}

// normalizeWorkerURL canonicalizes a membership URL so the same worker
// joined twice (trailing slash, say) lands on one table entry.
func normalizeWorkerURL(raw string) (string, error) {
	u := strings.TrimRight(strings.TrimSpace(raw), "/")
	p, err := url.Parse(u)
	if err != nil {
		return "", fmt.Errorf("%w: %q: %v", service.ErrBadWorkerURL, raw, err)
	}
	if (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
		return "", fmt.Errorf("%w: %q (need http(s)://host[:port])", service.ErrBadWorkerURL, raw)
	}
	return u, nil
}

// registry is the mutable worker membership table plus the prober's
// policy knobs. Dispatch (pick), healthz and shard sizing (snapshot)
// all read the cached probe state — the only goroutine that talks to
// worker healthz endpoints is the prober (and the inline probe on
// join/startup).
type registry struct {
	hc           *http.Client
	probeTimeout time.Duration
	interval     time.Duration // healthy re-probe cadence
	backoffMax   time.Duration // failure backoff cap
	quarAfter    int           // strikes or flaps before quarantine
	rejoinAfter  int           // clean probes to leave quarantine
	now          func() time.Time
	kick         chan struct{} // wakes the prober early (membership change)

	mu      sync.Mutex
	workers []*worker
	next    int
}

func newRegistry(urls []string, hc *http.Client, cfg Config) *registry {
	r := &registry{
		hc:           hc,
		probeTimeout: cfg.ProbeTimeout,
		interval:     cfg.ProbeInterval,
		backoffMax:   cfg.ProbeBackoffMax,
		quarAfter:    cfg.QuarantineAfter,
		rejoinAfter:  cfg.RejoinAfter,
		now:          time.Now,
		kick:         make(chan struct{}, 1),
	}
	for _, u := range urls {
		if n, err := normalizeWorkerURL(u); err == nil {
			u = n
		}
		r.add(u)
	}
	return r
}

// list copies the current membership slice (the workers themselves are
// shared).
func (r *registry) list() []*worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*worker(nil), r.workers...)
}

// add joins a worker (idempotent); fresh reports whether the table
// grew. The new worker starts unknown — callers that need it usable
// immediately probe it inline.
func (r *registry) add(u string) (w *worker, fresh bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if w.url == u {
			return w, false
		}
	}
	w = &worker{url: u, cli: client.New(u, r.hc), state: stateUnknown}
	r.workers = append(r.workers, w)
	select {
	case r.kick <- struct{}{}:
	default:
	}
	return w, true
}

// remove drops a worker from the table; nil when it was not a member.
// Shards in flight on it hit byURL == nil and re-dispatch.
func (r *registry) remove(u string) *worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, w := range r.workers {
		if w.url == u {
			r.workers = append(r.workers[:i], r.workers[i+1:]...)
			return w
		}
	}
	return nil
}

// byURL resolves a recovered shard's recorded worker; nil when the
// worker is no longer a member (the shard re-dispatches instead).
func (r *registry) byURL(u string) *worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if w.url == u {
			return w
		}
	}
	return nil
}

// probeDelay is the per-worker re-probe schedule: the base interval
// while healthy, doubling per consecutive failure up to backoffMax —
// a dead worker costs one timed-out probe per backoff period, not one
// per dispatch.
func (r *registry) probeDelay(strikes int) time.Duration {
	d := r.interval
	for i := 1; i < strikes && d < r.backoffMax; i++ {
		d *= 2
	}
	return min(d, r.backoffMax)
}

// probeOne fetches the worker's /v1/healthz once and advances its
// membership state machine.
func (r *registry) probeOne(ctx context.Context, w *worker) {
	pctx, cancel := context.WithTimeout(ctx, r.probeTimeout)
	h, err := w.cli.Health(pctx)
	cancel()
	now := r.now()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.probed = true
	w.lastProbe = now
	if err != nil {
		if w.state == stateActive {
			w.flaps++
		}
		w.lastErr = err.Error()
		w.clean = 0
		w.strikes++
		if w.state != stateQuarantined {
			if w.strikes >= r.quarAfter || w.flaps >= r.quarAfter {
				w.state = stateQuarantined
			} else {
				w.state = stateDown
			}
		}
	} else {
		w.health, w.lastErr = h, ""
		w.strikes = 0
		w.clean++
		if w.state == stateQuarantined {
			if w.clean >= r.rejoinAfter {
				w.state, w.flaps = stateActive, 0
			}
		} else {
			w.state = stateActive
			if w.clean >= r.rejoinAfter {
				w.flaps = 0 // a calm streak forgives old flapping
			}
		}
	}
	w.nextProbe = now.Add(r.probeDelay(w.strikes))
}

// prober owns worker health: it re-probes every member on its due
// time (interval while healthy, exponential backoff while failing)
// until ctx ends. Membership changes kick it awake early. Everything
// else in the coordinator reads the cached result — a healthz scrape
// or a dispatch never blocks on a live worker probe.
func (r *registry) prober(ctx context.Context) {
	for {
		t := time.NewTimer(r.nextDue())
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-r.kick:
			t.Stop()
		case <-t.C:
		}
		r.probeDue(ctx)
	}
}

// nextDue is how long the prober should sleep before a worker needs
// probing (bounded below so a clock hiccup cannot busy-loop it).
func (r *registry) nextDue() time.Duration {
	now := r.now()
	d := r.interval
	for _, w := range r.list() {
		w.mu.Lock()
		due := w.nextProbe
		w.mu.Unlock()
		if wait := due.Sub(now); wait < d {
			d = wait
		}
	}
	return max(d, time.Millisecond)
}

// probeDue probes every worker whose nextProbe has passed,
// concurrently.
func (r *registry) probeDue(ctx context.Context) {
	now := r.now()
	var wg sync.WaitGroup
	for _, w := range r.list() {
		w.mu.Lock()
		due := !w.nextProbe.After(now)
		w.mu.Unlock()
		if !due {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.probeOne(ctx, w)
		}()
	}
	wg.Wait()
}

// pick returns an active worker round-robin from the cached membership
// state — no probes on the dispatch path. Workers in refused (they
// declined a Submit this round) are excluded outright; soft (the
// worker whose stream just failed) is deprioritized but still returned
// when it is the only active choice. The error carries the last
// skipped worker's reason.
func (r *registry) pick(refused map[string]bool, soft string) (*worker, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.workers)
	if n == 0 {
		return nil, fmt.Errorf("coord: no workers configured")
	}
	start := r.next % n
	r.next = (start + 1) % n
	var fallback *worker
	var lastErr error
	for i := range n {
		w := r.workers[(start+i)%n]
		if refused[w.url] {
			continue
		}
		w.mu.Lock()
		state, errStr := w.state, w.lastErr
		w.mu.Unlock()
		if state != stateActive {
			if errStr == "" {
				errStr = "not probed yet"
			}
			lastErr = fmt.Errorf("coord: worker %s %s: %s", w.url, state, errStr)
			continue
		}
		if w.url == soft {
			fallback = w
			continue
		}
		return w, nil
	}
	if fallback != nil {
		return fallback, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("coord: no active workers")
	}
	return nil, lastErr
}

// sweep probes every member once, concurrently, so the first dispatch
// reads a real state. Workers that are down are tolerated: they may
// come up later, and the prober keeps trying.
func (r *registry) sweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, w := range r.list() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.probeOne(ctx, w)
		}()
	}
	wg.Wait()
}

// snapshot returns the cached fleet view plus the summed capacity of
// the active workers. It never probes.
func (r *registry) snapshot() (views []service.WorkerHealth, fleetWorkers, idleWorkers int) {
	ws := r.list()
	now := r.now()
	views = make([]service.WorkerHealth, len(ws))
	for i, w := range ws {
		views[i] = w.view(now)
		w.mu.Lock()
		if w.state == stateActive {
			fleetWorkers += w.health.FleetWorkers
			idleWorkers += w.health.IdleWorkers
		}
		w.mu.Unlock()
	}
	return views, fleetWorkers, idleWorkers
}

// stealTargets returns the active workers with idle capacity, skipping
// avoid (the straggler itself) — the candidates a stolen remainder can
// be re-dispatched to.
func (r *registry) stealTargets(avoid string) (targets []*worker, idle int) {
	for _, w := range r.list() {
		if w.url == avoid {
			continue
		}
		w.mu.Lock()
		if w.state == stateActive && w.health.IdleWorkers > 0 {
			targets = append(targets, w)
			idle += w.health.IdleWorkers
		}
		w.mu.Unlock()
	}
	return targets, idle
}
