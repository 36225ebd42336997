package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bisd"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/sram"
	"repro/memtest"
	"repro/service"
	"repro/service/client"
	"repro/service/store"
)

// ladder times each layer from outside, one rung per layer boundary,
// on the workload's first devices at one device worker, so the rung
// costs add up: bank pass, result building, JSON encoding, spool append
// and read, the manager's follower, the HTTP stream with and without
// client decoding, and the coordinator's merge. Every rung is a span
// under one "ladder" trace.
type ladder struct {
	e    *env
	tr   *tracer
	root int64
	n    int
	seed int64 // the first timed job's seed
	out  map[string]float64
	halt stopper
}

func runLadder(ctx context.Context, e *env, tr *tracer, out map[string]float64) error {
	l := &ladder{e: e, tr: tr, root: tr.id(), n: e.p.ladderDevices, seed: opSeed(e.p.seed, 0), out: out}
	defer l.halt.run()
	t0 := time.Now()
	err := l.run(ctx)
	tr.add("ladder", l.root, 0, "ladder", t0, time.Now())
	return err
}

func (l *ladder) rung(name string, f func(id int64) error) error {
	id := l.tr.id()
	t0 := time.Now()
	err := f(id)
	l.tr.add("ladder", id, l.root, name, t0, time.Now())
	if err != nil {
		return fmt.Errorf("ladder rung %s: %w", name, err)
	}
	return nil
}

// perDevice is a duration per ladder device in microseconds.
func (l *ladder) perDevice(d time.Duration) float64 {
	return float64(d) / 1e3 / float64(l.n)
}

func (l *ladder) run(ctx context.Context) error {
	var bank bankCost
	var faults int
	rungs := []struct {
		name string
		f    func(id int64) error
	}{
		{"config.build", func(int64) (err error) {
			faults, err = l.build()
			return err
		}},
		{"bank", func(id int64) (err error) {
			bank, err = l.bank(id)
			return err
		}},
		{"memtest.fleet", func(int64) error { return l.fleet(ctx, bank, faults) }},
		{"encode+store", func(int64) error { return l.encodeStore(ctx) }},
		{"served", func(int64) error { return l.served(ctx) }},
	}
	for _, r := range rungs {
		if err := l.rung(r.name, r.f); err != nil {
			return err
		}
	}
	return nil
}

// deviceSeeds fills seeds with device d's per-memory defect seeds, the
// derivation memtest's fleet path uses (splitmix64 of the job seed,
// the device index and the memory's spec seed), so the ladder builds
// exactly the devices the first job diagnosed. The fleet rung checks
// that claim by comparing fault counts.
func deviceSeeds(seeds []int64, soc config.SoC, base int64, d int) {
	mix := func(base, seed int64, idx int) int64 {
		return int64(fault.Splitmix64(uint64(base) + 0x9e3779b97f4a7c15*uint64(seed) + 0xbf58476d1ce4e5b9*uint64(idx+1)))
	}
	dev := mix(base, int64(d)+0x5eed, d)
	for i, m := range soc.Memories {
		seeds[i] = mix(dev, m.Seed, i)
	}
}

// build times config.Builder.Build alone and counts the injected
// faults.
func (l *ladder) build() (faults int, err error) {
	soc := l.e.def.soc()
	b, err := config.NewBuilder(soc)
	if err != nil {
		return 0, err
	}
	seeds := make([]int64, len(soc.Memories))
	t0 := time.Now()
	for d := range l.n {
		deviceSeeds(seeds, soc, l.seed, d)
		_, truth, err := b.Build(seeds)
		if err != nil {
			return 0, err
		}
		for _, t := range truth {
			faults += len(t)
		}
	}
	l.out["config.build_us_per_device"] = l.perDevice(time.Since(t0))
	l.out["config.faults_per_device"] = float64(faults) / float64(l.n)
	return faults, nil
}

// bankCost is the bank rung's time split, which the fleet rung
// subtracts to find evaluation's share.
type bankCost struct{ build, load, pass time.Duration }

// bank replays the fleet worker's batch loop by hand: per 64-device
// batch, build each device and load its faults into lane l of one
// sram.MemoryBank per memory, then run one bisd.BankRunner pass.
func (l *ladder) bank(parent int64) (bankCost, error) {
	var c bankCost
	soc := l.e.def.soc()
	b, err := config.NewBuilder(soc)
	if err != nil {
		return c, err
	}
	seeds := make([]int64, len(soc.Memories))
	banks := make([]*sram.MemoryBank, len(soc.Memories))
	cMax := 0
	for i, m := range soc.Memories {
		banks[i] = sram.NewMemoryBank(m.Words, m.Width)
		cMax = max(cMax, m.Width)
	}
	test := march.WithNWRTM(march.MarchCW(cMax))
	want := wantCycles(l.e.def.plan())
	runner := bisd.NewBankRunner()
	bankable := 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for d0 := 0; d0 < l.n; d0 += sram.BankLanes {
		lanes := min(sram.BankLanes, l.n-d0)
		for _, bk := range banks {
			bk.Reset()
		}
		fill := time.Now()
		for lane := range lanes {
			t0 := time.Now()
			deviceSeeds(seeds, soc, l.seed, d0+lane)
			mems, _, err := b.Build(seeds)
			if err != nil {
				return c, err
			}
			t1 := time.Now()
			ok := true
			for i, m := range mems {
				good, err := banks[i].LoadLane(lane, m.Faults())
				if err != nil {
					return c, err
				}
				ok = ok && good
			}
			c.build += t1.Sub(t0)
			c.load += time.Since(t1)
			if ok {
				bankable++
			}
		}
		pass := time.Now()
		reps, err := runner.Run(banks, lanes, test, bisd.ProposedOptions{ClockNs: soc.ClockNs})
		end := time.Now()
		if err != nil {
			return c, err
		}
		c.pass += end.Sub(pass)
		l.tr.add("ladder", 0, parent, "bank.fill", fill, pass)
		l.tr.add("ladder", 0, parent, "bank.pass", pass, end)
		for _, r := range reps {
			if r.Cycles != want {
				return c, fmt.Errorf("bank pass: %d cycles, want %d", r.Cycles, want)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	l.out["bank.load_us_per_device"] = l.perDevice(c.load)
	l.out["bank.pass_us_per_device"] = l.perDevice(c.pass)
	l.out["bank.bankable_ratio"] = float64(bankable) / float64(l.n)
	l.out["bank.allocs_per_device"] = float64(m1.Mallocs-m0.Mallocs) / float64(l.n)
	return c, nil
}

// session opens the first job's fleet session at the given workers.
func (l *ladder) session(workers int) (*memtest.Session, error) {
	return memtest.New(l.e.def.plan(), memtest.WithDRF(), memtest.WithWorkers(workers), memtest.WithSeed(l.seed))
}

// fleet times RunFleetRange with results discarded at one and two
// workers. Evaluation is what one worker spends beyond the bank rung's
// build, load and pass.
func (l *ladder) fleet(ctx context.Context, bank bankCost, faults int) error {
	timeFleet := func(workers int, gaps *[]float64) (time.Duration, int, error) {
		s, err := l.session(workers)
		if err != nil {
			return 0, 0, err
		}
		injected := 0
		t0 := time.Now()
		last := t0
		for dr, err := range s.RunFleetRange(ctx, 0, l.n) {
			if err != nil {
				return 0, 0, err
			}
			now := time.Now()
			if gaps != nil {
				*gaps = append(*gaps, float64(now.Sub(last))/1e3)
			}
			last = now
			for _, m := range dr.Result.Memories {
				injected += m.Injected
			}
		}
		return time.Since(t0), injected, nil
	}
	one, injected, err := timeFleet(1, nil)
	if err != nil {
		return err
	}
	if injected != faults {
		return fmt.Errorf("the fleet drew %d faults where the ladder built %d: device seeding diverged", injected, faults)
	}
	var gaps []float64
	two, _, err := timeFleet(2, &gaps)
	if err != nil {
		return err
	}
	l.out["memtest.fleet_us_per_device"] = l.perDevice(one)
	l.out["memtest.evaluate_us_per_device"] = l.perDevice(one - bank.build - bank.load - bank.pass)
	l.out["memtest.scaling_2w"] = float64(one) / float64(two)
	_, l.out["memtest.yield_gap_tail_us"] = tail(gaps)
	return nil
}

// encodeStore encodes each device with json.Encoder, as the manager
// does, appends the lines to a disk spool and reads them back.
func (l *ladder) encodeStore(ctx context.Context) error {
	s, err := l.session(1)
	if err != nil {
		return err
	}
	st, err := store.NewDisk(filepath.Join(l.e.dir, "ladder-store"))
	if err != nil {
		return err
	}
	defer st.Close()
	job, err := st.Create("ladder", []byte("{}"))
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	wrote := sha256.New()
	var encT, appendT time.Duration
	var nbytes int
	var kept []memtest.DeviceResult
	for dr, err := range s.RunFleetRange(ctx, 0, l.n) {
		if err != nil {
			return err
		}
		t0 := time.Now()
		buf.Reset()
		if err := enc.Encode(dr); err != nil {
			return err
		}
		t1 := time.Now()
		if err := job.Append(bytes.TrimSuffix(buf.Bytes(), []byte("\n"))); err != nil {
			return err
		}
		appendT += time.Since(t1)
		encT += t1.Sub(t0)
		nbytes += buf.Len()
		wrote.Write(buf.Bytes())
		if len(kept) < sram.BankLanes {
			kept = append(kept, dr)
		}
	}
	t0 := time.Now()
	if err := job.Flush(); err != nil {
		return err
	}
	appendT += time.Since(t0)

	read := sha256.New()
	lines := 0
	t0 = time.Now()
	err = job.Read(0, l.n, func(line []byte) error {
		read.Write(line)
		read.Write([]byte{'\n'})
		lines++
		return nil
	})
	readT := time.Since(t0)
	if err != nil {
		return err
	}
	if lines != l.n || !bytes.Equal(read.Sum(nil), wrote.Sum(nil)) {
		return fmt.Errorf("spool read back %d of %d lines, or different bytes", lines, l.n)
	}

	// Allocations per encode, counted on retained results with nothing
	// else running.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, dr := range kept {
		buf.Reset()
		if err := enc.Encode(dr); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	l.out["encode.us_per_device"] = l.perDevice(encT)
	l.out["encode.bytes_per_device"] = float64(nbytes) / float64(l.n)
	l.out["encode.allocs_per_device"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(kept))
	l.out["store.append_us_per_device"] = l.perDevice(appendT)
	l.out["store.read_us_per_device"] = l.perDevice(readT)
	return nil
}

// sampler polls f every interval until stopped and keeps the values.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	vals []float64
}

func startSampler(interval time.Duration, f func() float64) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.vals = append(s.vals, f())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample (0 when the
// run ended before the first tick).
func (s *sampler) finish() float64 {
	close(s.stop)
	<-s.done
	if len(s.vals) == 0 {
		return 0
	}
	return median(s.vals)
}

// served climbs the service rungs on one memtestd worker with one
// device worker: the manager's follower in process, the same job over
// HTTP raw and decoded, one-shots at each layer, and the coordinator
// over that worker against the worker direct.
func (l *ladder) served(ctx context.Context) error {
	m, reg, base, err := startWorker(&l.halt, filepath.Join(l.e.dir, "ladder-worker"), 1)
	if err != nil {
		return err
	}
	req := service.JobRequest{Plan: l.e.def.plan(), Devices: l.n, Seed: l.seed, DRF: true, Delivery: "ordered"}

	// Manager.Submit -> Follow, in process.
	ahead := startSampler(10*time.Millisecond, func() float64 {
		return scrape(reg, "devices_diagnosed_total") - scrape(reg, "devices_completed_total")
	})
	t0 := time.Now()
	st, err := m.Submit(req)
	if err != nil {
		ahead.finish()
		return err
	}
	var first time.Time
	lines := 0
	jobErr, err := m.Follow(ctx, st.ID, 0, func([]byte) error {
		if lines == 0 {
			first = time.Now()
		}
		lines++
		return nil
	})
	follow := time.Since(t0)
	l.out["service.compute_ahead_devices_p50"] = ahead.finish()
	if err != nil || jobErr != "" || lines != l.n {
		return fmt.Errorf("follow: %d of %d lines (%v %s)", lines, l.n, err, jobErr)
	}
	fin, err := m.Status(st.ID)
	if err != nil {
		return err
	}
	l.out["service.follow_us_per_device"] = l.perDevice(follow)
	l.out["service.first_line_ms"] = float64(first.Sub(t0)) / 1e6
	if fin.Started != nil {
		l.out["service.queue_wait_ms"] = float64(fin.Started.Sub(fin.Created)) / 1e6
	}

	// The finished job over HTTP: raw lines, then decoded.
	c := loadClient(base)
	t0 = time.Now()
	raw := rawStream(ctx, c, st.ID, nil)
	rawT := time.Since(t0)
	if raw.err != nil || raw.n != l.n {
		return fmt.Errorf("raw replay: %d of %d lines (%v)", raw.n, l.n, raw.err)
	}
	t0 = time.Now()
	typed := 0
	for _, err := range c.Results(ctx, st.ID) {
		if err != nil {
			return err
		}
		typed++
	}
	typedT := time.Since(t0)
	if typed != l.n {
		return fmt.Errorf("typed replay: %d of %d devices", typed, l.n)
	}
	l.out["http.raw_us_per_device"] = l.perDevice(rawT)
	l.out["http.decode_us_per_device"] = l.perDevice(typedT - rawT)

	if err := l.oneShots(ctx, m, c); err != nil {
		return err
	}

	// The same job submitted to the worker directly over HTTP, then
	// through a coordinator whose only worker it is.
	t0 = time.Now()
	dst, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	direct := rawStream(ctx, c, dst.ID, nil)
	directT := time.Since(t0)
	if direct.err != nil || direct.n != l.n || direct.sum != raw.sum {
		return fmt.Errorf("direct job: %d of %d lines, identical %v (%v)", direct.n, l.n, direct.sum == raw.sum, direct.err)
	}
	co, creg, cbase, err := startCoord(&l.halt, filepath.Join(l.e.dir, "ladder-coord"), []string{base})
	if err != nil {
		return err
	}
	cc := loadClient(cbase)
	var cst service.JobStatus
	var mu sync.Mutex
	lag := startSampler(10*time.Millisecond, func() float64 {
		mu.Lock()
		id := cst.ID
		mu.Unlock()
		if id == "" {
			return 0
		}
		js, err := co.Status(id)
		if err != nil {
			return 0
		}
		completed, merged := 0, 0
		for _, sh := range js.Shards {
			merged += sh.Merged
			if ws, err := m.Status(sh.JobID); err == nil {
				completed += ws.Completed
			}
		}
		return float64(completed - merged)
	})
	t0 = time.Now()
	got, err := cc.Submit(ctx, req)
	if err != nil {
		lag.finish()
		return err
	}
	mu.Lock()
	cst = got
	mu.Unlock()
	merged := rawStream(ctx, cc, got.ID, nil)
	coordT := time.Since(t0)
	l.out["coord.merge_lag_devices_p50"] = lag.finish()
	if merged.err != nil || merged.n != l.n || merged.sum != raw.sum {
		return fmt.Errorf("coordinated job: %d of %d lines, identical %v (%v)", merged.n, l.n, merged.sum == raw.sum, merged.err)
	}
	l.out["coord.overhead_us_per_device"] = l.perDevice(coordT - directT)
	l.out["coord.first_line_ms"] = float64(merged.first.Sub(t0)) / 1e6
	for k, v := range coordCounters(creg) {
		l.out[k] += v
	}
	l.out["store.flushes_per_job"] = scrape(reg, "store_flushes_total") / scrape(reg, "jobs_submitted_total")
	return nil
}

// oneShots times the same one-shot diagnoses at three layers: the
// library (memtest.New + RunAll), the manager (Manager.Diagnose) and
// HTTP (client.Diagnose).
func (l *ladder) oneShots(ctx context.Context, m *service.Manager, c *client.Client) error {
	p := l.e.def.plan()
	timeEach := func(f func(seed int64) error) ([]float64, error) {
		var us []float64
		for j := range l.e.p.oneShots {
			t0 := time.Now()
			if err := f(opSeed(l.seed, -100-j)); err != nil {
				return nil, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return us, nil
	}
	lib, err := timeEach(func(seed int64) error {
		_, err := memtest.Diagnose(ctx, p, memtest.WithDRF(), memtest.WithSeed(seed))
		return err
	})
	if err != nil {
		return err
	}
	svc, err := timeEach(func(seed int64) error {
		_, err := m.Diagnose(ctx, service.JobRequest{Plan: p, DRF: true, Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	web, err := timeEach(func(seed int64) error {
		_, err := c.Diagnose(ctx, service.JobRequest{Plan: p, DRF: true, Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	l.out["memtest.oneshot_us"] = median(lib)
	l.out["service.diagnose_us"] = median(svc)
	l.out["http.diagnose_overhead_us"] = median(web) - median(svc)
	return nil
}
