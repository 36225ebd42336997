package memtest

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"slices"
	"sync"

	"repro/internal/fault"
	"repro/internal/repair"
	"repro/internal/sram"
	"repro/internal/timing"
)

// Session is a configured diagnosis run: one plan, one engine, one set
// of options. Sessions are created with New and executed with Run,
// RunAll, RunFleet or AppendFleetRange; a Session is safe for
// concurrent use, except that runs sharing a WithTrace recorder
// interleave their events.
type Session struct {
	plan    Plan
	engine  Engine
	eopt    EngineOptions
	budget  Budget
	workers int
	seed    int64
	seedSet bool

	// observe, when non-nil, is called once per device as a fleet
	// worker finishes diagnosing it (see WithDeviceObserver).
	observe func(device int)
	// noBatch forces the per-device fleet path even when the engine has
	// a batch path — the differential suite's reference arm.
	noBatch bool
}

// Option configures a Session; see the With* constructors.
type Option func(*Session) error

// WithScheme selects the diagnosis engine by registry name ("proposed",
// "baseline", "singledir", "rawsim", or any name registered via
// RegisterEngine). New fails with ErrUnknownScheme for unknown names.
func WithScheme(name string) Option {
	return func(s *Session) error {
		e, err := LookupEngine(name)
		if err != nil {
			return err
		}
		s.engine = e
		return nil
	}
}

// WithEngine plugs an engine instance in directly, bypassing the
// registry.
func WithEngine(e Engine) Option {
	return func(s *Session) error {
		s.engine = e
		return nil
	}
}

// WithDRF enables data-retention-fault diagnosis: the NWRTM merge for
// the proposed scheme (no added delay), the 2x100 ms delay phase for
// the baseline.
func WithDRF() Option {
	return func(s *Session) error {
		s.eopt.IncludeDRF = true
		return nil
	}
}

// WithWorkers sets the RunFleet worker-pool size; n < 1 selects
// GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *Session) error {
		s.workers = n
		return nil
	}
}

// WithSeed sets the base seed: every memory's defect draw is reseeded
// with a deterministic mix of this base, the spec seed and the memory
// index (and, under RunFleet, the device index). Without WithSeed a
// single Run uses the plan's literal per-memory seeds.
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		s.seed = seed
		s.seedSet = true
		return nil
	}
}

// WithRepair configures per-memory spare repair allocation after
// diagnosis and fleet yield accounting.
func WithRepair(b Budget) Option {
	return func(s *Session) error {
		s.budget = b
		return nil
	}
}

// WithTrace attaches a recorder that receives cycle-stamped engine
// events (deliveries, element starts, miscompares).
func WithTrace(r *TraceRecorder) Option {
	return func(s *Session) error {
		s.eopt.Trace = r
		return nil
	}
}

// WithDeliveryOrder sets the proposed scheme's background serialization
// order; LSBFirst reproduces the Fig. 4 hazard.
func WithDeliveryOrder(o Order) Option {
	return func(s *Session) error {
		s.eopt.DeliveryOrder = o
		return nil
	}
}

// WithDeviceObserver installs fn, called with the device index each
// time a fleet worker finishes diagnosing a device — at compute time,
// before any delivery ordering, so it sees live progress even while
// ordered delivery is head-of-line blocked on an earlier device. fn is
// called concurrently from every fleet worker and must be safe for
// concurrent use; it should also be allocation-free if the caller
// cares about the worker loop's steady-state alloc behaviour (an
// atomic counter qualifies — this is memtestd's live-metrics hook).
// A nil fn disables the hook.
func WithDeviceObserver(fn func(device int)) Option {
	return func(s *Session) error {
		s.observe = fn
		return nil
	}
}

// WithMarchTest overrides the March test for test-programmable engines.
func WithMarchTest(t MarchTest) Option {
	return func(s *Session) error {
		if err := t.Validate(); err != nil {
			return err
		}
		s.eopt.Test = &t
		return nil
	}
}

// New validates the plan, applies the options and resolves the engine
// (default "proposed"). Errors wrap the package's sentinel errors.
func New(plan Plan, opts ...Option) (*Session, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s := &Session{plan: plan}
	s.eopt.ClockNs = plan.ClockNs
	for _, o := range opts {
		if err := o(s); err != nil {
			return nil, err
		}
	}
	if s.engine == nil {
		e, err := LookupEngine("proposed")
		if err != nil {
			return nil, err
		}
		s.engine = e
	}
	return s, nil
}

// Plan returns the session's plan.
func (s *Session) Plan() Plan { return s.plan }

// Engine returns the resolved engine.
func (s *Session) Engine() Engine { return s.engine }

// Trace returns the events recorded by the WithTrace recorder, if any.
func (s *Session) Trace() []TraceEvent { return s.eopt.Trace.Events() }

// runOnce diagnoses the session's single device on a pooled worker
// and returns its ground truth and report.
func (s *Session) runOnce(ctx context.Context) ([][]fault.Fault, *Report, error) {
	w, err := s.worker()
	if err != nil {
		return nil, nil, err
	}
	defer putWorker(w)
	return w.diagnose(ctx, s.eopt, s.seed, s.seedSet)
}

// Run executes the session's engine once and streams the evaluated
// per-memory Diagnosis values. The sequence yields a single non-nil
// error (with a zero Diagnosis) if the engine fails or ctx is
// cancelled; engines abort promptly on cancellation. The returned
// iterator is single-use in spirit: each range over it re-executes the
// diagnosis.
func (s *Session) Run(ctx context.Context) iter.Seq2[Diagnosis, error] {
	return func(yield func(Diagnosis, error) bool) {
		truth, rep, err := s.runOnce(ctx)
		if err != nil {
			yield(Diagnosis{}, err)
			return
		}
		for i := range rep.Memories {
			if err := ctx.Err(); err != nil {
				yield(Diagnosis{}, err)
				return
			}
			if !yield(s.evaluate(s.plan.Memories[i].Name, truth[i], &rep.Memories[i]), nil) {
				return
			}
		}
	}
}

// RunAll executes the session and materializes the full Result,
// including fleet yield statistics when a repair budget is set.
func (s *Session) RunAll(ctx context.Context) (*Result, error) {
	truth, rep, err := s.runOnce(ctx)
	if err != nil {
		return nil, err
	}
	return s.fillResult(new(Result), truth, rep), nil
}

// fillResult evaluates every memory of a completed run against its
// ground truth into res and returns it. It reuses res.Memories when it
// has room, so a fleet worker can evaluate lane after lane into one
// Result, and takes the truth rather than a Fleet, because the banked
// path builds no memories. The evaluation shares rep and its located
// lists; only a repair budget allocates: the spare allocations and
// the yield.
func (s *Session) fillResult(res *Result, truth [][]fault.Fault, rep *Report) *Result {
	mems := res.Memories[:0]
	if n := len(rep.Memories); cap(mems) < n {
		mems = make([]Diagnosis, n)
	} else {
		mems = mems[:n]
	}
	*res = Result{
		Engine:   s.engine.Name(),
		Scheme:   s.engine.Describe(),
		Plan:     s.plan.Name,
		Report:   rep,
		Memories: mems,
	}
	for i := range rep.Memories {
		mems[i] = s.evaluate(s.plan.Memories[i].Name, truth[i], &rep.Memories[i])
	}
	if s.budget != (Budget{}) {
		locatedPerMem := make([][]Cell, len(rep.Memories))
		for i := range rep.Memories {
			locatedPerMem[i] = rep.Memories[i].Located
		}
		y := repair.FleetYield(locatedPerMem, s.budget)
		res.Yield = &y
	}
	return res
}

// clone returns a copy of a fillResult result that shares none of its
// structs: one allocation holds the Result and its Report, and the two
// memory slices are copied. The located cells and failure records stay
// shared, for a caller whose batch runner hands them over (keep), and
// a Diagnosis keeps sharing its memory report's located list, as
// evaluate sets it. Repair and Yield are shared, because fillResult
// allocates them afresh for every device.
func (r *Result) clone() *Result {
	box := &struct {
		res Result
		rep Report
	}{res: *r, rep: *r.Report}
	res, rep := &box.res, &box.rep
	res.Report = rep
	rep.Memories = slices.Clone(rep.Memories)
	res.Memories = slices.Clone(res.Memories)
	return res
}

// DeviceResult pairs one fleet device's index and derived seed with its
// full diagnosis result.
type DeviceResult struct {
	// Device is the device index in [0, devices).
	Device int `json:"device"`
	// Seed is the per-device base seed the defect draw derived from.
	Seed int64 `json:"seed"`
	// Result is the device's evaluated diagnosis.
	Result *Result `json:"result"`
}

// RunFleet diagnoses `devices` instances of the session's plan — the
// fleet-scale workload: each device is the same design with an
// independent, deterministically seeded defect population (device d
// mixes the session seed with d, so results are reproducible at any
// worker count). Devices fan out across a worker pool (WithWorkers,
// default GOMAXPROCS) and results stream back in device order without
// materializing the whole fleet. On cancellation the stream ends with
// ctx.Err() after at most the in-flight devices' work. RunFleet is the
// full range [0, devices) of RunFleetRange.
func (s *Session) RunFleet(ctx context.Context, devices int) iter.Seq2[DeviceResult, error] {
	return func(yield func(DeviceResult, error) bool) {
		if devices <= 0 {
			yield(DeviceResult{}, fmt.Errorf("%w: %d", ErrBadDeviceCount, devices))
			return
		}
		s.RunFleetRange(ctx, 0, devices)(yield)
	}
}

// RunFleetRange diagnoses the device suffix [lo, hi) of a fleet:
// device indices, seeds and payloads are exactly those RunFleet would
// produce for the same positions, so stitching [0, k) and [k, n)
// streams reproduces a full [0, n) run byte for byte at any worker
// count. This is the resume/sharding primitive: a run interrupted
// after k devices — or one shard of a plan split across nodes — is
// completed by re-running only the missing range. An empty range
// (lo == hi) yields nothing and returns immediately; lo < 0 or
// hi < lo fails with ErrBadDeviceRange.
//
// The stream is strictly in device order. Workers claim devices in
// order and keep at most reorderWindow(workers) claims in flight,
// counting the one that holds the device being yielded, so a slow
// device holds back a bounded number of finished results, never the
// rest of the range. Every yielded Result belongs to the caller: the
// workers copy each device out of their reused storage.
func (s *Session) RunFleetRange(ctx context.Context, lo, hi int) iter.Seq2[DeviceResult, error] {
	return func(yield func(DeviceResult, error) bool) {
		if lo < 0 || hi < lo {
			yield(DeviceResult{}, fmt.Errorf("%w: [%d, %d)", ErrBadDeviceRange, lo, hi))
			return
		}
		dev, err := s.fleet(ctx, lo, hi, false, func(d int, m fleetMsg) error {
			if !yield(DeviceResult{Device: d, Seed: deviceSeed(s.seed, d), Result: m.res}, nil) {
				return errStreamStopped
			}
			return nil
		})
		if err != nil && err != errStreamStopped {
			yield(DeviceResult{Device: dev}, err)
		}
	}
}

// AppendFleetRange diagnoses devices [lo, hi) as RunFleetRange does and
// calls fn with each device's result line, in device order: the bytes
// DeviceResult.AppendJSON appends for the DeviceResult RunFleetRange
// would yield, with no trailing newline. The fleet worker that
// diagnosed a device encodes its line into a buffer the stream
// recycles, so no per-device result is built or allocated on the way;
// line is valid only during the call. The range is checked as
// RunFleetRange checks it. An error from fn, a cancelled ctx or a
// device's failure stops the workers and is returned.
func (s *Session) AppendFleetRange(ctx context.Context, lo, hi int, fn func(device int, line []byte) error) error {
	if lo < 0 || hi < lo {
		return fmt.Errorf("%w: [%d, %d)", ErrBadDeviceRange, lo, hi)
	}
	_, err := s.fleet(ctx, lo, hi, true, func(d int, m fleetMsg) error { return fn(d, m.line) })
	return err
}

// errStreamStopped is RunFleetRange's signal that its consumer stopped
// iterating; it never reaches the consumer.
var errStreamStopped = errors.New("memtest: fleet stream stopped")

// fleet runs devices [lo, hi) through the session's worker pool and
// hands each device's outcome to deliver, in device order: when encode
// is set, an encoded line in a buffer of its worker's, which the stream
// takes back once deliver returns; otherwise a caller-owned Result. It
// returns the first error — deliver's, the context's or a device's —
// with the device a device error stands for (0 otherwise), once every
// worker has exited.
func (s *Session) fleet(ctx context.Context, lo, hi int, encode bool, deliver func(d int, m fleetMsg) error) (int, error) {
	if lo == hi {
		return 0, nil
	}
	// A private cancel releases the workers whenever the stream ends,
	// so no goroutine outlives it.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := s.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, hi-lo)
	// When the engine has a batch path, workers claim whole bit-sliced
	// batches instead of single devices: one schedule pass diagnoses up
	// to sram.BankLanes devices at once. Both paths yield
	// byte-identical per-device results, so the claiming granularity
	// never shows in the stream.
	batcher, batched := s.engine.(batchEngine)
	batched = batched && !s.noBatch
	step := 1
	if batched {
		step = sram.BankLanes
	}
	ws := make([]*fleetWorker, workers)
	for i := range ws {
		w, err := s.worker()
		if err != nil {
			return lo, err
		}
		ws[i] = w
		if batched && w.runner == nil {
			w.runner = batcher.newBatchRunner(w.plan)
		}
		// A stream that keeps up has about one claim per worker waiting
		// at a time: the ones that finished before the claim ahead.
		w.lines.max = step
	}
	opt := s.eopt
	opt.Trace = nil // trace is single-run only

	// free holds the claims not in flight; there are reorderWindow of
	// them, so taking one is taking a place in the window, and the
	// stream returns each claim, channel and all, once it has
	// delivered its devices. Claims enter queue in device order under
	// claimMu; queue has room for every claim, so that send never
	// blocks.
	window := reorderWindow(workers)
	free := make(chan *fleetClaim, window)
	for range window {
		free <- new(fleetClaim)
	}
	queue := make(chan *fleetClaim, window)
	var claimMu sync.Mutex
	next := lo
	claim := func(w *fleetWorker) (*fleetClaim, bool) {
		// Sends to a claim never block, so a worker would otherwise
		// keep its processor, and the stream it just woke would wait
		// for a preemption while finished results pile up to the
		// window. Yielding first lets the stream drain them.
		runtime.Gosched()
		var c *fleetClaim
		select {
		case c = <-free:
		case <-ctx.Done():
			return nil, false
		}
		claimMu.Lock()
		defer claimMu.Unlock()
		if next >= hi || ctx.Err() != nil {
			free <- c
			return nil, false
		}
		c.lo, c.n, c.lines = next, min(step, hi-next), nil
		if encode {
			c.lines = &w.lines
		}
		if cap(c.out) < c.n {
			c.out = make(chan fleetMsg, step)
		}
		next += c.n
		queue <- c
		return c, true
	}

	// The workers go back to the pool once the stream has delivered its
	// last device, not as each runs out of claims: delivering the tail
	// of a paper-scale stream runs the collector, which empties the
	// pool. Nothing they sent uses their storage by then: results are
	// copies and lines live in the stream's buffers.
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		for _, w := range ws {
			putWorker(w)
		}
	}()
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok := claim(w)
				if !ok {
					return
				}
				if batched {
					if !w.runBatch(ctx, s, opt, c) {
						return
					}
					continue
				}
				truth, rep, err := w.diagnose(ctx, opt, deviceSeed(s.seed, c.lo), true)
				if err != nil {
					c.out <- fleetMsg{err: err}
					continue
				}
				if s.observe != nil {
					s.observe(c.lo)
				}
				// A per-device report is the engine's own, so the fresh
				// result needs no copy.
				w.send(s, c, c.lo, s.fillResult(new(Result), truth, rep))
			}
		}()
	}

	for d := lo; d < hi; {
		var c *fleetClaim
		select {
		case c = <-queue:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
		for end := c.lo + c.n; d < end; d++ {
			var m fleetMsg
			select {
			case m = <-c.out:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			if m.err != nil {
				return d, m.err
			}
			if err := deliver(d, m); err != nil {
				return 0, err
			}
			if m.line != nil {
				c.lines.put(m.line)
			}
		}
		free <- c
	}
	return 0, nil
}

// reorderWindow is how many claims — bit-sliced batches, or single
// devices on the per-device path — a fleet stream keeps in flight: the
// one holding the next device to deliver plus the ones behind it. A
// worker that finds the window full waits for the stream to catch up,
// which bounds the finished results a slow device can hold back. Two
// claims per worker let each worker finish one claim and start the
// next while the stream drains, so a stream that keeps up never
// throttles the pool.
func reorderWindow(workers int) int { return 2 * workers }

// fleetClaim is one worker claim in flight: devices [lo, lo+n) and the
// channel their outcomes arrive on, in device order. out has room for
// a whole claim, so a worker never blocks on delivery, and it is
// recycled with the claim. A claim of an encoded stream carries the
// line buffers of the worker that took it.
type fleetClaim struct {
	lo, n int
	lines *lineFree
	out   chan fleetMsg
}

// fleetMsg is one device's outcome in flight from a fleet worker to
// the stream — its encoded line, or its caller-owned Result, or the
// error that ends the stream; its device is implied by its position in
// the claim.
type fleetMsg struct {
	res  *Result
	line []byte
	err  error
}

// lineFree is a fleet worker's free list of line buffers, the most
// recently returned first: the worker takes one for each line it
// encodes, and the stream returns it once the line is delivered. The
// list stays with the worker, so the next stream starts on the buffers
// the last one grew. It keeps at most max of them, so after a burst —
// the stream stalled and the window filled up with lines — the surplus
// goes back to the garbage collector. Idle buffers count as live heap,
// which the collector lets grow to twice its size, so keeping a whole
// window's worth would raise a served job's peak memory for the rest
// of the stream.
type lineFree struct {
	mu   sync.Mutex
	bufs [][]byte
	max  int
}

// get returns an empty buffer with room for n bytes.
func (f *lineFree) get(n int) []byte {
	f.mu.Lock()
	var b []byte
	if k := len(f.bufs); k > 0 {
		b, f.bufs = f.bufs[k-1], f.bufs[:k-1]
	}
	f.mu.Unlock()
	if cap(b) < n {
		b = make([]byte, 0, n+n/4)
	}
	return b[:0]
}

func (f *lineFree) put(b []byte) {
	f.mu.Lock()
	if len(f.bufs) < f.max {
		f.bufs = append(f.bufs, b)
	}
	f.mu.Unlock()
}

// deviceSeed derives device d's base seed from the session seed.
func deviceSeed(base int64, device int) int64 {
	return mixSeed(base, int64(device)+0x5eed, device)
}

// Diagnose is the one-shot convenience: New + RunAll.
func Diagnose(ctx context.Context, plan Plan, opts ...Option) (*Result, error) {
	s, err := New(plan, opts...)
	if err != nil {
		return nil, err
	}
	return s.RunAll(ctx)
}

// Comparison pairs a proposed-scheme run against the baseline on the
// same plan, the paper's Sec. 4.2 experiment.
type Comparison struct {
	Proposed *Result `json:"proposed"`
	Baseline *Result `json:"baseline"`
	// MeasuredReduction is T_baseline / T_proposed from the
	// cycle-accurate engines.
	MeasuredReduction float64 `json:"measured_reduction"`
	// AnalyticReduction evaluates Eq. (3)/(4) with the baseline's
	// measured iteration count k and the fleet's largest geometry.
	AnalyticReduction float64 `json:"analytic_reduction"`
}

// Compare runs both architectures on the plan and derives the reduction
// factors.
func Compare(ctx context.Context, plan Plan, includeDRF bool, opts ...Option) (*Comparison, error) {
	// The scheme selections are appended after the caller's options so
	// a stray WithScheme/WithEngine cannot turn the comparison into the
	// same engine vs itself; shared is a fresh slice so the appends
	// below never alias the caller's backing array.
	shared := make([]Option, 0, len(opts)+2)
	shared = append(shared, opts...)
	if includeDRF {
		shared = append(shared, WithDRF())
	}
	propS, err := New(plan, append(shared[:len(shared):len(shared)], WithScheme("proposed"))...)
	if err != nil {
		return nil, err
	}
	baseS, err := New(plan, append(shared[:len(shared):len(shared)], WithScheme("baseline"))...)
	if err != nil {
		return nil, err
	}
	prop, err := propS.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	base, err := baseS.RunAll(ctx)
	if err != nil {
		return nil, err
	}
	cmp := &Comparison{Proposed: prop, Baseline: base}
	cmp.MeasuredReduction = base.TimeNs() / prop.TimeNs()

	p := timing.Params{N: plan.LargestWords(), C: plan.WidestWidth(), ClockNs: plan.ClockNs, K: base.Report.Iterations}
	// The analytic equation must answer the same question the engines
	// ran: key it off the sessions' effective DRF setting, so a caller-
	// supplied WithDRF() cannot desynchronize the two reduction figures.
	if propS.eopt.IncludeDRF {
		cmp.AnalyticReduction = timing.ReductionWithDRF(p)
	} else {
		cmp.AnalyticReduction = timing.ReductionNoDRF(p)
	}
	return cmp, nil
}
