package memtest

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"repro/internal/config"
	"repro/internal/fault"
)

// fleetWorker is the state one fleet goroutine, or one single run,
// diagnoses on — like the paper's BISD hardware, built once and reused
// by every run. Workers wait in workerPool between streams, so a
// stream starts on the storage the last one grew and an idle process's
// workers go to the collector. A worker serves only an equal plan and
// the same engine value. Not safe for concurrent use.
type fleetWorker struct {
	plan   Plan // a private copy, so a caller's later edit unfits it
	engine Engine
	b      *config.Builder
	seeds  []int64     // per-memory derived-seed scratch
	runner batchRunner // the engine's, for plan, made by the first batched stream
	// truth is the truth arena: truth[lane][i] is memory i's fault list
	// for the batch's lane-th device, drawn in place batch after batch.
	// A Result keeps only counts derived from the truth, never the
	// lists.
	truth [][][]fault.Fault
	// lane is the Result each lane of a batch is evaluated into and
	// sent from, copied or encoded; lineCap is the length of the last
	// encoded line, the room asked for in the next line's buffer.
	lane    Result
	lineCap int
	lines   lineFree // the buffers the worker's lines are encoded into
}

// workerPool holds the fleet workers no stream or single run is using,
// for the whole process: a stream finds the last worker returned for
// its plan on any processor, where a sync.Pool would hide it in the
// private slot of the processor that put it back and the stream would
// build a new one. After each collection, old holds the workers idle at
// it and those idle since the one before are dropped, so an idle
// process's workers still go to the collector.
var workerPool struct {
	sync.Mutex
	idle, old []*fleetWorker
}

func init() { sweepEachCycle() }

// sweepEachCycle runs sweepWorkers after the next collection, whose
// cleanup of an unreachable sentinel arms the one after.
func sweepEachCycle() {
	runtime.AddCleanup(new(struct{ _ *byte }), func(struct{}) {
		sweepWorkers()
		sweepEachCycle()
	}, struct{}{})
}

// sweepWorkers drops the workers idle since the last sweep and keeps
// the others until the next.
func sweepWorkers() {
	workerPool.Lock()
	clear(workerPool.old)
	workerPool.old, workerPool.idle = workerPool.idle, workerPool.old[:0]
	workerPool.Unlock()
}

// putWorker returns w to workerPool.
func putWorker(w *fleetWorker) {
	workerPool.Lock()
	workerPool.idle = append(workerPool.idle, w)
	workerPool.Unlock()
}

// newFleetWorker allocates a worker for plan and engine e.
func newFleetWorker(plan Plan, e Engine) (*fleetWorker, error) {
	plan.Memories = slices.Clone(plan.Memories)
	b, err := config.NewBuilder(plan)
	if err != nil {
		return nil, err
	}
	return &fleetWorker{
		plan:   plan,
		engine: e,
		b:      b,
		seeds:  make([]int64, len(plan.Memories)),
	}, nil
}

// worker takes the most recently pooled worker that fits s, or makes
// one. Return it with putWorker once its stream or run has ended.
func (s *Session) worker() (*fleetWorker, error) {
	workerPool.Lock()
	for _, l := range []*[]*fleetWorker{&workerPool.idle, &workerPool.old} {
		for i := len(*l) - 1; i >= 0; i-- {
			if w := (*l)[i]; w.fits(s) {
				*l = slices.Delete(*l, i, i+1)
				workerPool.Unlock()
				return w, nil
			}
		}
	}
	workerPool.Unlock()
	return newFleetWorker(s.plan, s.engine)
}

// fits reports whether w was made for s's plan and engine value. A
// name is not enough: two engines may share one. As errors.Is does,
// an engine of an uncomparable type matches nothing rather than panic.
func (w *fleetWorker) fits(s *Session) bool {
	p := s.plan
	return w.plan.Name == p.Name && w.plan.ClockNs == p.ClockNs &&
		slices.Equal(w.plan.Memories, p.Memories) &&
		reflect.TypeOf(s.engine).Comparable() && w.engine == s.engine
}

// deriveSeeds replaces each memory's seed by a splitmix64 mix of base,
// the spec seed and the memory index — the deterministic per-device
// seeding RunFleet and WithSeed use — into the reused seed scratch.
func (w *fleetWorker) deriveSeeds(base int64) []int64 {
	for i, m := range w.plan.Memories {
		w.seeds[i] = mixSeed(base, m.Seed, i)
	}
	return w.seeds
}

// truthArena returns fault lists for lanes devices, one per memory of
// the plan, each with room for exactly the population Draw writes into
// it, all cut from one slab: drawing into the arena never allocates,
// from its first device on.
func (w *fleetWorker) truthArena(lanes int) [][][]fault.Fault {
	nm := len(w.plan.Memories)
	per := 0
	for _, m := range w.plan.Memories {
		per += fault.PopulationSize(m.Words*m.Width, m.DefectRate, m.DRFCount)
	}
	slab := make([]fault.Fault, lanes*per)
	lists := make([][]fault.Fault, lanes*nm)
	arena := make([][][]fault.Fault, lanes)
	for l := range arena {
		arena[l] = lists[l*nm : (l+1)*nm : (l+1)*nm]
		for i, m := range w.plan.Memories {
			n := fault.PopulationSize(m.Words*m.Width, m.DefectRate, m.DRFCount)
			arena[l][i], slab = slab[:0:n], slab[n:]
		}
	}
	return arena
}

// diagnose builds one device on the builder's recycled memories, with
// seeds derived from base when derive is true and the plan's literal
// seeds otherwise, runs the engine on it and returns the device's
// freshly allocated ground truth and its report.
func (w *fleetWorker) diagnose(ctx context.Context, opt EngineOptions, base int64, derive bool) ([][]fault.Fault, *Report, error) {
	var seeds []int64
	if derive {
		seeds = w.deriveSeeds(base)
	}
	mems, truth, err := w.b.Build(seeds)
	if err != nil {
		return nil, nil, err
	}
	rep, err := w.engine.Run(ctx, &Fleet{plan: w.plan, mems: mems}, opt)
	if err != nil {
		return nil, nil, err
	}
	return truth, rep, nil
}

// runBatch diagnoses claim c's devices of s's fleet as one bit-sliced
// batch on the worker's runner: each device's fault lists are drawn
// into the truth arena (the same seeds and defect draw as the
// per-device path, with no memory built) and loaded into its lane; one
// run pass then produces every lane's report. Each lane is evaluated
// into the worker's one reused Result and sent straight away, copied
// or encoded, so the runner's reports and the Result are free again
// for the next lane.
// Outcomes go out in ascending device order, so an error stands in
// for the device it belongs to; on a draw/load error — including a
// device with an unbankable fault, which the batch path refuses
// rather than diagnose wrongly — the already loaded lanes still run
// and are sent (the ordered stream would otherwise wait on them
// forever) before the failing device's error is sent. It reports
// whether the worker should keep claiming batches.
func (w *fleetWorker) runBatch(ctx context.Context, s *Session, opt EngineOptions, c *fleetClaim) bool {
	d0, size := c.lo, c.n
	if len(w.truth) < size {
		w.truth = w.truthArena(size)
	}
	loaded := 0
	var loadErr error
	for ; loaded < size; loaded++ {
		truth := w.truth[loaded]
		err := w.b.Draw(w.deriveSeeds(deviceSeed(s.seed, d0+loaded)), truth)
		if err == nil {
			err = w.runner.load(loaded, truth)
		}
		if err != nil {
			loadErr = err
			break
		}
	}
	if loaded > 0 {
		reports, err := w.runner.run(ctx, loaded, opt)
		if err != nil {
			// A batch-level failure (cancellation, bad test) aborts every
			// lane; attribute it to the batch's first device.
			c.out <- fleetMsg{err: err}
			return false
		}
		// Results handed to the caller outlive the batch, whose reports
		// the runner reuses: each lane's Result is cloned, and once all
		// are, the runner gives its record storage up to the clones.
		// The claim is the stream's to reuse once its last lane is sent,
		// so what it carries is read first.
		copies := c.lines == nil
		for l := 0; l < loaded; l++ {
			d := d0 + l
			if s.observe != nil {
				s.observe(d)
			}
			s.fillResult(&w.lane, w.truth[l], reports[l])
			res := &w.lane
			if copies {
				res = res.clone()
			}
			if !w.send(s, c, d, res) {
				return false
			}
		}
		if copies {
			w.runner.keep()
		}
	}
	if loadErr != nil {
		c.out <- fleetMsg{err: loadErr}
		return false
	}
	return true
}

// send hands device d's finished result to s's stream through claim c:
// res itself, which must then be the caller's to keep, or, for an
// encoded stream, its line, encoded into one of the worker's line
// buffers with room for its last line. It reports false, having sent
// the error instead, when the result cannot be encoded.
func (w *fleetWorker) send(s *Session, c *fleetClaim, d int, res *Result) bool {
	if c.lines == nil {
		c.out <- fleetMsg{res: res}
		return true
	}
	line, err := DeviceResult{Device: d, Seed: deviceSeed(s.seed, d), Result: res}.AppendJSON(c.lines.get(w.lineCap))
	if err != nil {
		c.out <- fleetMsg{err: err}
		return false
	}
	w.lineCap = len(line)
	c.out <- fleetMsg{line: line}
	return true
}
