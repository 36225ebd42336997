package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/memtest"
	"repro/service"
	"repro/service/client"
	"repro/service/coord"
	"repro/service/store"
)

// workloadDef is one traffic mix. The why strings are the reasons each
// workload exists; README.md expands on them.
type workloadDef struct {
	name string
	why  string
	plan func() memtest.Plan
	soc  func() config.SoC
	// jobDevices is the size of one fleet job; ladderDevices how many of
	// the first job's devices the traced run's ladder diagnoses.
	jobDevices    int
	ladderDevices int
	build         func(e *env) system
}

var workloads = []workloadDef{
	{
		name:       "fleet-hetero",
		why:        "library fleet path on the small heterogeneous SoC: build, bank pass and evaluation only; service layers idle",
		plan:       memtest.HeterogeneousExample,
		soc:        config.HeterogeneousExample,
		jobDevices: 4096, ladderDevices: 4096,
		build: func(e *env) system { return &fleetSystem{e: e} },
	},
	{
		name:       "fleet-paper16",
		why:        "same library path on the paper's 512x100 e-SRAM with 256 faults: 35x the memory and ~200 KB of result per device",
		plan:       memtest.Benchmark16,
		soc:        config.Benchmark16,
		jobDevices: 1024, ladderDevices: 256,
		build: func(e *env) system { return &fleetSystem{e: e} },
	},
	{
		name:       "memtestd-hetero",
		why:        "memtestd over loopback HTTP with a disk spool: encode, append, stream and decode dominate; a replay reads beside the writer",
		plan:       memtest.HeterogeneousExample,
		soc:        config.HeterogeneousExample,
		jobDevices: 4096, ladderDevices: 4096,
		build: func(e *env) system { return &memtestdSystem{e: e} },
	},
	{
		name:       "coord-hetero",
		why:        "memtest-coord over two one-worker memtestd nodes: the only workload where dispatch, the second hop and the ordered merge work",
		plan:       memtest.HeterogeneousExample,
		soc:        config.HeterogeneousExample,
		jobDevices: 4096, ladderDevices: 4096,
		build: func(e *env) system { return &coordSystem{e: e} },
	},
	{
		name:          "diagnose-open",
		why:           "open loop of one-shot POST /v1/diagnose at a fixed rate: the per-device engine with no batching; fleet changes should leave it flat",
		plan:          memtest.HeterogeneousExample,
		soc:           config.HeterogeneousExample,
		ladderDevices: 4096,
		build:         func(e *env) system { return &diagnoseSystem{e: e} },
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// system is one workload's system under test.
type system interface {
	// start builds the system and runs its warm-up on seeds outside
	// the timed range.
	start(ctx context.Context) error
	// load drives the timed window until deadline (or the size caps).
	load(ctx context.Context, deadline time.Time) *window
	// verify checks the window's outputs against in-process
	// references, after the window.
	verify(ctx context.Context, w *window)
	// layer reports per-layer counters the workload's own run observed.
	layer() map[string]float64
	// stop releases everything start built; it is idempotent.
	stop()
}

// env is what a system needs from the run.
type env struct {
	p   *params
	def *workloadDef
	dir string  // scratch directory of this setup round
	tr  *tracer // nil when untraced
}

// traced reports whether timed operation i records spans: in a traced
// run every other operation does, so the untraced half measures the
// tracing overhead under the same conditions.
func (e *env) traced(i int) bool { return e.tr != nil && i%2 == 1 }

func (e *env) jobRequest(i int) service.JobRequest {
	return service.JobRequest{
		Plan: e.def.plan(), Devices: e.p.jobDevices, Seed: opSeed(e.p.seed, i),
		DRF: true, Delivery: "ordered",
	}
}

// opSeed derives operation i's seed from the run seed. Warm-up
// operations use negative i, so they never share a seed with a timed
// one.
func opSeed(seed int64, i int) int64 {
	return int64(fault.Splitmix64(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(int64(i))))
}

// wantCycles is the analytic per-device diagnosis time: Eq. (2) on the
// widest and deepest memory plus the NWRTM merge's 2n+2c.
func wantCycles(p memtest.Plan) int64 {
	n, c := p.LargestWords(), p.WidestWidth()
	return memtest.ProposedCycles(n, c) + int64(2*n+2*c)
}

// opRecord is one timed operation: a fleet job or a one-shot request.
type opRecord struct {
	trace   string
	seed    int64
	devices int
	latency time.Duration // submit (or due time) to last result
	first   time.Duration // submit to first result
	late    time.Duration // open loop: how late the send left
	traced  bool
	failed  bool
	sum     [32]byte // SHA-256 of the job's NDJSON stream, served jobs
	summed  bool
}

// window is what the timed load produced.
type window struct {
	ops     []opRecord
	wall    time.Duration
	replays []float64 // devices/s of each replay

	mu       sync.Mutex
	notes    []string
	runFails int
	cycles   int64 // sum over tallied devices
	located  int64
	tallied  int
}

// fail records a failed check. i >= 0 blames timed operation i; i < 0
// fails the run as a whole.
func (w *window) fail(i int, format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if i >= 0 && i < len(w.ops) {
		w.ops[i].failed = true
	} else {
		w.runFails++
	}
	w.notes = append(w.notes, fmt.Sprintf(format, args...))
}

// tally adds one device's simulated cycles and located cells, checking
// the cycles against the analytic count.
func (w *window) tally(i int, r *memtest.Result, want int64) {
	w.mu.Lock()
	w.cycles += r.Report.Cycles
	w.located += int64(r.Report.TotalLocated())
	w.tallied++
	w.mu.Unlock()
	if r.Report.Cycles != want {
		w.fail(i, "op %d: %d simulated cycles, want %d", i, r.Report.Cycles, want)
	}
}

func (w *window) failed() int {
	n := w.runFails
	for _, op := range w.ops {
		if op.failed {
			n++
		}
	}
	return n
}

// groupSpans records one span per 64 results of a stream (one bank
// batch's worth), parented to the job's root span.
type groupSpans struct {
	tr     *tracer
	trace  string
	parent int64
	last   time.Time
	n      int
}

func (g *groupSpans) line(now time.Time) {
	g.n++
	if g.n%64 == 0 {
		g.tr.add(g.trace, 0, g.parent, "group", g.last, now)
		g.last = now
	}
}

// --- fleet-hetero, fleet-paper16: the library path ---

type fleetSystem struct {
	e       *env
	samples []fleetSample
}

// fleetSample is one device result kept for the post-window check.
type fleetSample struct {
	op     int
	device int
	seed   int64
	sum    [32]byte
}

func (f *fleetSystem) start(ctx context.Context) error {
	w := &window{ops: make([]opRecord, 1)}
	f.job(ctx, w, 0, opSeed(f.e.p.seed, -1), false)
	f.samples = nil
	if w.failed() > 0 {
		return fmt.Errorf("warm-up job: %v", w.notes)
	}
	return nil
}

func (f *fleetSystem) load(ctx context.Context, deadline time.Time) *window {
	w := &window{}
	t0 := time.Now()
	for i := 0; f.e.p.more(i, deadline); i++ {
		w.ops = append(w.ops, opRecord{})
		f.job(ctx, w, i, opSeed(f.e.p.seed, i), f.e.traced(i))
	}
	w.wall = time.Since(t0)
	return w
}

// job runs one closed-loop fleet job: RunFleetRange over the job's
// devices at two workers, results consumed in order and checked
// inline. A few devices per job are kept as hashes for verify.
func (f *fleetSystem) job(ctx context.Context, w *window, i int, seed int64, traced bool) {
	p, n := f.e.def.plan(), f.e.p.jobDevices
	op := &w.ops[i]
	*op = opRecord{trace: jobTrace(i), seed: seed, devices: n, traced: traced}
	var tr *tracer
	if traced {
		tr = f.e.tr
	}
	root := tr.id()
	t0 := time.Now()
	s, err := memtest.New(p, memtest.WithDRF(), memtest.WithWorkers(2), memtest.WithSeed(seed))
	if err != nil {
		w.fail(i, "op %d: new session: %v", i, err)
		return
	}
	want := wantCycles(p)
	picks := sampleOffsets(seed, n)
	g := groupSpans{tr: tr, trace: op.trace, parent: root}
	k := 0
	for dr, err := range s.RunFleetRange(ctx, 0, n) {
		if err != nil {
			w.fail(i, "op %d: fleet: %v", i, err)
			break
		}
		now := time.Now()
		if k == 0 {
			op.first = now.Sub(t0)
			tr.add(op.trace, 0, root, "first_result", t0, now)
			g.last = now
		}
		g.line(now)
		if dr.Device != k {
			w.fail(i, "op %d: device %d out of order at %d", i, dr.Device, k)
		}
		w.tally(i, dr.Result, want)
		if len(picks) > 0 && picks[0] == k {
			picks = picks[1:]
			b, err := json.Marshal(dr)
			if err != nil {
				w.fail(i, "op %d: marshal device %d: %v", i, k, err)
			}
			f.samples = append(f.samples, fleetSample{op: i, device: dr.Device, seed: dr.Seed, sum: sha256.Sum256(b)})
		}
		k++
	}
	op.latency = time.Since(t0)
	tr.add(op.trace, root, 0, "fleet.job", t0, t0.Add(op.latency))
	if k != n {
		w.fail(i, "op %d: %d of %d devices", i, k, n)
	}
}

// verify re-diagnoses every kept device on its own through a one-shot
// session seeded with the device's seed — the per-device engine, not
// the bit-sliced batch path the fleet used — and requires the two JSON
// renderings to be identical.
func (f *fleetSystem) verify(ctx context.Context, w *window) {
	p := f.e.def.plan()
	for _, s := range f.samples {
		b, err := oneShot(ctx, p, s.seed, s.device)
		if err != nil {
			w.fail(s.op, "op %d: reference device %d: %v", s.op, s.device, err)
			continue
		}
		if sha256.Sum256(b) != s.sum {
			w.fail(s.op, "op %d: device %d differs from its one-shot reference", s.op, s.device)
		}
	}
}

func (f *fleetSystem) layer() map[string]float64 { return nil }
func (f *fleetSystem) stop()                     {}

// oneShot diagnoses one device alone and renders it as its fleet
// stream line would be.
func oneShot(ctx context.Context, p memtest.Plan, seed int64, device int) ([]byte, error) {
	r, err := memtest.Diagnose(ctx, p, memtest.WithDRF(), memtest.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return json.Marshal(memtest.DeviceResult{Device: device, Seed: seed, Result: r})
}

// sampleOffsets picks the devices of a job whose results verify
// re-derives: the first, the last and two drawn from the seed.
func sampleOffsets(seed int64, n int) []int {
	r := fault.Splitmix64(uint64(seed))
	set := map[int]bool{0: true, n - 1: true, int(r % uint64(n)): true, int((r >> 32) % uint64(n)): true}
	var out []int
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// --- served workloads: shared plumbing ---

// serve runs h on a loopback listener. The returned stop closes the
// server and waits for its accept loop to return.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// loadClient is the load generator's client: at most two connections
// to its server, the benchmark's whole connection budget.
func loadClient(base string) *client.Client {
	return client.New(base, &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}})
}

// newManager builds a memtestd manager with the daemon's defaults, a
// metrics registry, a discarded log and the given store (nil = memory).
func newManager(workers int, st store.Store, retain int) (*service.Manager, *obs.Registry, error) {
	reg := obs.NewRegistry()
	m, err := service.NewManager(service.Config{
		FleetWorkers: workers, Store: st, Metrics: reg, Logger: obs.Discard(), RetainJobs: retain,
	})
	if err != nil && st != nil {
		st.Close()
	}
	return m, reg, err
}

// stopper collects teardown steps and runs them once, last first.
type stopper struct {
	once  sync.Once
	steps []func()
}

func (s *stopper) push(f func()) { s.steps = append(s.steps, f) }

func (s *stopper) run() {
	s.once.Do(func() {
		for i := len(s.steps) - 1; i >= 0; i-- {
			s.steps[i]()
		}
	})
}

// streamed is one drained result stream: its line count, when the
// first line arrived, and the SHA-256 of its NDJSON bytes.
type streamed struct {
	n     int
	first time.Time
	sum   [32]byte
	err   error
}

// rawStream drains a job's results with RawResults, hashing every line
// as the wire carried it; g, when non-nil, records group spans.
func rawStream(ctx context.Context, c *client.Client, id string, g *groupSpans) streamed {
	var s streamed
	h := sha256.New()
	for line, err := range c.RawResults(ctx, id) {
		if err != nil {
			s.err = err
			break
		}
		now := time.Now()
		if s.n == 0 {
			s.first = now
			if g != nil {
				g.last = now
			}
		}
		if g != nil {
			g.line(now)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
		s.n++
	}
	copy(s.sum[:], h.Sum(nil))
	return s
}

// reference computes the bytes a job's NDJSON stream must carry — the
// in-process RunFleetRange over the same request, each result through
// json.Encoder exactly as the manager encodes it — tallying cycles and
// located cells on the way.
func reference(ctx context.Context, w *window, i int, req service.JobRequest) ([32]byte, error) {
	var sum [32]byte
	s, err := memtest.New(req.Plan, memtest.WithDRF(), memtest.WithWorkers(2), memtest.WithSeed(req.Seed))
	if err != nil {
		return sum, err
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	want := wantCycles(req.Plan)
	for dr, err := range s.RunFleetRange(ctx, req.FirstDevice, req.FirstDevice+req.Devices) {
		if err != nil {
			return sum, err
		}
		w.tally(i, dr.Result, want)
		if err := enc.Encode(dr); err != nil {
			return sum, err
		}
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// verifyStreams compares every summed job stream with its reference.
func verifyStreams(ctx context.Context, e *env, w *window) {
	for i := range w.ops {
		op := &w.ops[i]
		if op.failed {
			continue
		}
		if !op.summed {
			w.fail(i, "op %d: stream never hashed", i)
			continue
		}
		req := e.jobRequest(i)
		ref, err := reference(ctx, w, i, req)
		if err != nil {
			w.fail(i, "op %d: reference: %v", i, err)
			continue
		}
		if ref != op.sum {
			w.fail(i, "op %d (%s): stream differs from the in-process reference", i, op.trace)
		}
	}
}

// finish checks that a job ended done.
func finish(ctx context.Context, c *client.Client, w *window, i int, id string) {
	st, err := c.Job(ctx, id)
	if err != nil {
		w.fail(i, "op %d: status: %v", i, err)
		return
	}
	if st.State != service.StateDone {
		w.fail(i, "op %d: job %s ended %s (%s)", i, id, st.State, st.Error)
	}
}

// --- memtestd-hetero ---

type memtestdSystem struct {
	e    *env
	c    *client.Client
	halt stopper
}

func (s *memtestdSystem) start(ctx context.Context) error {
	st, err := store.NewDisk(filepath.Join(s.e.dir, "memtestd"))
	if err != nil {
		return err
	}
	m, _, err := newManager(2, st, 4)
	if err != nil {
		return err
	}
	s.halt.push(m.Close)
	base, stopHTTP, err := serve(service.NewServer(m))
	if err != nil {
		return err
	}
	s.halt.push(stopHTTP)
	s.c = loadClient(base)
	// Warm up the submit, typed stream and replay paths once.
	req := s.e.jobRequest(-1)
	jst, err := s.c.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	n := 0
	for _, err := range s.c.Results(ctx, jst.ID) {
		if err != nil {
			return fmt.Errorf("warm-up stream: %w", err)
		}
		n++
	}
	if r := rawStream(ctx, s.c, jst.ID, nil); r.err != nil || r.n != n || n != req.Devices {
		return fmt.Errorf("warm-up: streamed %d, replayed %d of %d devices (%v)", n, r.n, req.Devices, r.err)
	}
	return nil
}

// load runs sequential ordered jobs on connection 1, each read with the
// typed client; while job i streams, connection 2 replays finished job
// i-1 from offset 0 with RawResults. The replay's hash is the job's
// stream hash that verify checks.
func (s *memtestdSystem) load(ctx context.Context, deadline time.Time) *window {
	w := &window{}
	want := wantCycles(s.e.def.plan())
	// replay re-reads finished job i and returns its devices/s.
	replay := func(i int) float64 {
		t := time.Now()
		r := rawStream(ctx, s.c, w.ops[i].trace, nil)
		d := time.Since(t)
		w.mu.Lock()
		w.ops[i].sum, w.ops[i].summed = r.sum, r.err == nil
		w.mu.Unlock()
		if r.err != nil || r.n != w.ops[i].devices {
			w.fail(i, "op %d: replay %d of %d lines (%v)", i, r.n, w.ops[i].devices, r.err)
		}
		return float64(r.n) / d.Seconds()
	}
	t0 := time.Now()
	for i := 0; s.e.p.more(i, deadline); i++ {
		req := s.e.jobRequest(i)
		w.ops = append(w.ops, opRecord{seed: req.Seed, devices: req.Devices, traced: s.e.traced(i)})
		var tr *tracer
		if w.ops[i].traced {
			tr = s.e.tr
		}
		root := tr.id()
		start := time.Now()
		st, err := s.c.Submit(ctx, req)
		submitted := time.Now()
		if err != nil {
			w.fail(i, "op %d: submit: %v", i, err)
			continue
		}
		w.ops[i].trace = st.ID
		tr.add(st.ID, 0, root, "submit", start, submitted)
		var wg sync.WaitGroup
		if i > 0 && w.ops[i-1].trace != "" {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rate := replay(i - 1)
				w.mu.Lock()
				w.replays = append(w.replays, rate)
				w.mu.Unlock()
			}()
		}
		g := groupSpans{tr: tr, trace: st.ID, parent: root}
		k := 0
		var first time.Time
		for dr, err := range s.c.Results(ctx, st.ID) {
			if err != nil {
				w.fail(i, "op %d: stream: %v", i, err)
				break
			}
			now := time.Now()
			if k == 0 {
				first = now
				g.last = now
				tr.add(st.ID, 0, root, "first_line", submitted, now)
			}
			g.line(now)
			if dr.Device != k {
				w.fail(i, "op %d: device %d out of order at %d", i, dr.Device, k)
			}
			if dr.Result.Report.Cycles != want {
				w.fail(i, "op %d: device %d: %d cycles, want %d", i, k, dr.Result.Report.Cycles, want)
			}
			k++
		}
		end := time.Now()
		w.ops[i].latency, w.ops[i].first = end.Sub(start), first.Sub(start)
		if k != req.Devices {
			w.fail(i, "op %d: streamed %d of %d devices", i, k, req.Devices)
		}
		wg.Wait()
		finish(ctx, s.c, w, i, st.ID)
		tr.add(st.ID, root, 0, "memtestd.job", start, end)
	}
	w.wall = time.Since(t0)
	// The last job has no successor to replay beside; replay it now,
	// outside the window, so every job carries a stream hash.
	if last := len(w.ops) - 1; last >= 0 && w.ops[last].trace != "" {
		replay(last)
	}
	return w
}

func (s *memtestdSystem) verify(ctx context.Context, w *window) { verifyStreams(ctx, s.e, w) }

func (s *memtestdSystem) layer() map[string]float64 { return nil }

func (s *memtestdSystem) stop() { s.halt.run() }

// --- coord-hetero ---

type coordSystem struct {
	e    *env
	reg  *obs.Registry
	c    *client.Client
	halt stopper
}

// startCoord builds a coordinator with memtest-coord's flag defaults
// over the given workers, served on loopback.
func startCoord(halt *stopper, dir string, workers []string) (*coord.Coordinator, *obs.Registry, string, error) {
	st, err := store.NewDisk(dir)
	if err != nil {
		return nil, nil, "", err
	}
	reg := obs.NewRegistry()
	co, err := coord.New(coord.Config{
		Workers: workers, StealThreshold: 4, Store: st,
		Metrics: reg, Logger: obs.Discard(), RetainJobs: 4,
	})
	if err != nil {
		st.Close()
		return nil, nil, "", err
	}
	halt.push(co.Close)
	base, stopHTTP, err := serve(service.NewServer(co))
	if err != nil {
		return nil, nil, "", err
	}
	halt.push(stopHTTP)
	return co, reg, base, nil
}

// startWorker builds one memtestd node with a disk store, served on
// loopback.
func startWorker(halt *stopper, dir string, fleetWorkers int) (*service.Manager, *obs.Registry, string, error) {
	st, err := store.NewDisk(dir)
	if err != nil {
		return nil, nil, "", err
	}
	m, reg, err := newManager(fleetWorkers, st, 4)
	if err != nil {
		return nil, nil, "", err
	}
	halt.push(m.Close)
	base, stopHTTP, err := serve(service.NewServer(m))
	if err != nil {
		return nil, nil, "", err
	}
	halt.push(stopHTTP)
	return m, reg, base, nil
}

func (s *coordSystem) start(ctx context.Context) error {
	var urls []string
	for k := range 2 {
		_, _, base, err := startWorker(&s.halt, filepath.Join(s.e.dir, fmt.Sprintf("worker%d", k)), 1)
		if err != nil {
			return err
		}
		urls = append(urls, base)
	}
	_, reg, base, err := startCoord(&s.halt, filepath.Join(s.e.dir, "coord"), urls)
	if err != nil {
		return err
	}
	s.reg, s.c = reg, loadClient(base)
	req := s.e.jobRequest(-1)
	jst, err := s.c.Submit(ctx, req)
	if err != nil {
		return fmt.Errorf("warm-up submit: %w", err)
	}
	if r := rawStream(ctx, s.c, jst.ID, nil); r.err != nil || r.n != req.Devices {
		return fmt.Errorf("warm-up: streamed %d of %d devices (%v)", r.n, req.Devices, r.err)
	}
	return nil
}

// load runs sequential ordered jobs through the coordinator on one
// connection, hashing each merged stream as it arrives.
func (s *coordSystem) load(ctx context.Context, deadline time.Time) *window {
	w := &window{}
	t0 := time.Now()
	for i := 0; s.e.p.more(i, deadline); i++ {
		req := s.e.jobRequest(i)
		w.ops = append(w.ops, opRecord{seed: req.Seed, devices: req.Devices, traced: s.e.traced(i)})
		var tr *tracer
		if w.ops[i].traced {
			tr = s.e.tr
		}
		root := tr.id()
		start := time.Now()
		st, err := s.c.Submit(ctx, req)
		submitted := time.Now()
		if err != nil {
			w.fail(i, "op %d: submit: %v", i, err)
			continue
		}
		w.ops[i].trace = st.ID
		tr.add(st.ID, 0, root, "submit", start, submitted)
		g := groupSpans{tr: tr, trace: st.ID, parent: root}
		r := rawStream(ctx, s.c, st.ID, &g)
		end := time.Now()
		if r.n > 0 {
			tr.add(st.ID, 0, root, "first_line", submitted, r.first)
			w.ops[i].first = r.first.Sub(start)
		}
		w.ops[i].latency = end.Sub(start)
		w.ops[i].sum, w.ops[i].summed = r.sum, r.err == nil
		if r.err != nil || r.n != req.Devices {
			w.fail(i, "op %d: streamed %d of %d devices (%v)", i, r.n, req.Devices, r.err)
		}
		finish(ctx, s.c, w, i, st.ID)
		tr.add(st.ID, root, 0, "coord.job", start, end)
	}
	w.wall = time.Since(t0)
	return w
}

func (s *coordSystem) verify(ctx context.Context, w *window) { verifyStreams(ctx, s.e, w) }

func (s *coordSystem) layer() map[string]float64 { return coordCounters(s.reg) }

func (s *coordSystem) stop() { s.halt.run() }

// coordCounters reads a coordinator's wasted-work counters from its
// /metrics rendering.
func coordCounters(reg *obs.Registry) map[string]float64 {
	return map[string]float64{
		"coord.steals":       scrape(reg, "coord_shard_steals_total"),
		"coord.redispatches": scrape(reg, "coord_shard_redispatch_total"),
		"coord.reconnects":   scrape(reg, "coord_stream_reconnects_total"),
	}
}

// --- diagnose-open ---

type diagnoseSystem struct {
	e    *env
	c    *client.Client
	sums [][32]byte
	halt stopper
}

func (s *diagnoseSystem) start(ctx context.Context) error {
	m, _, err := newManager(2, nil, 0)
	if err != nil {
		return err
	}
	s.halt.push(m.Close)
	base, stopHTTP, err := serve(service.NewServer(m))
	if err != nil {
		return err
	}
	s.halt.push(stopHTTP)
	s.c = loadClient(base)
	// Warm-up: a closed loop over both connections.
	p := s.e.def.plan()
	errs := make(chan error, 2)
	for k := range 2 {
		go func() {
			for j := k; j < s.e.p.warmRequests; j += 2 {
				if _, err := s.c.Diagnose(ctx, service.JobRequest{Plan: p, DRF: true, Seed: opSeed(s.e.p.seed, -1-j)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	return errors.Join(<-errs, <-errs)
}

// load runs the open loop: request i is due at start + i/rate and
// carries seed opSeed(seed, i); two senders share the schedule, one per
// connection.
func (s *diagnoseSystem) load(ctx context.Context, _ time.Time) *window {
	p := s.e.def.plan()
	n := s.e.p.requests
	want := wantCycles(p)
	interval := time.Duration(float64(time.Second) / s.e.p.rate)
	w := &window{ops: make([]opRecord, n)}
	s.sums = make([][32]byte, n)
	start := time.Now().Add(10 * time.Millisecond)
	lat, late, failed := openLoop(ctx, wallClock{}, start, interval, n, 2, func(i int) bool {
		sent := time.Now()
		res, err := s.c.Diagnose(ctx, service.JobRequest{Plan: p, DRF: true, Seed: opSeed(s.e.p.seed, i)})
		done := time.Now()
		if s.e.traced(i) {
			trace, due := jobTrace(i), start.Add(time.Duration(i)*interval)
			root := s.e.tr.id()
			s.e.tr.add(trace, 0, root, "late", due, sent)
			s.e.tr.add(trace, 0, root, "diagnose", sent, done)
			s.e.tr.add(trace, root, 0, "request", due, done)
		}
		if err != nil {
			w.fail(i, "request %d: %v", i, err)
			return true
		}
		if res.Report.Cycles != want {
			w.fail(i, "request %d: %d cycles, want %d", i, res.Report.Cycles, want)
			return true
		}
		b, err := json.Marshal(res)
		if err != nil {
			w.fail(i, "request %d: marshal: %v", i, err)
			return true
		}
		s.sums[i] = sha256.Sum256(b)
		return false
	})
	var last time.Duration
	for i := range n {
		due := time.Duration(i) * interval
		w.ops[i] = opRecord{trace: jobTrace(i), seed: opSeed(s.e.p.seed, i), devices: 1,
			latency: lat[i], first: lat[i], late: late[i], traced: s.e.traced(i),
			failed: failed[i] || w.ops[i].failed}
		last = max(last, due+lat[i])
	}
	w.wall = last
	return w
}

// verify re-runs every request's device in process and requires the
// same result, rendered as JSON, as the server returned.
func (s *diagnoseSystem) verify(ctx context.Context, w *window) {
	p := s.e.def.plan()
	want := wantCycles(p)
	for i := range w.ops {
		if w.ops[i].failed {
			continue
		}
		r, err := memtest.Diagnose(ctx, p, memtest.WithDRF(), memtest.WithSeed(w.ops[i].seed))
		if err != nil {
			w.fail(i, "request %d: reference: %v", i, err)
			continue
		}
		w.tally(i, r, want)
		b, err := json.Marshal(r)
		if err != nil {
			w.fail(i, "request %d: marshal reference: %v", i, err)
			continue
		}
		if sha256.Sum256(b) != s.sums[i] {
			w.fail(i, "request %d: result differs from the in-process reference", i)
		}
	}
}

func (s *diagnoseSystem) layer() map[string]float64 { return nil }

func (s *diagnoseSystem) stop() { s.halt.run() }
