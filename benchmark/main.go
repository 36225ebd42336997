// Command benchmark is the fleet-diagnosis benchmark: five workloads
// over the memtest library, memtestd and memtest-coord, each measured
// end to end in a fresh process and checked against in-process
// references. See README.md for the workloads, the metrics and the
// noise notes.
//
// One run:
//
//	go run . -workload fleet-hetero -seed 1 -seconds 15 -trace 0
//
// prints every end-to-end metric as "name value unit", then one JSON
// line {"correct", "attempted", "failed", "metrics"}; it exits 1 when an
// output check fails. -trace 1 runs the workload with spans on every
// other operation, climbs the per-layer ladder, writes the spans as
// JSON lines and prints the per-layer metrics instead.
//
// Repeated runs and comparison:
//
//	go run . -runs 10 -o parent.json          # every workload, fresh child processes
//	go run . compare parent.json change.json  # one verdict row per workload
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// params is one run's configuration. Zero sizes take the workload's
// defaults; the smoke test shrinks them.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch and output directory
	spans    string // spans file of a traced run

	jobDevices    int     // devices per fleet job
	maxJobs       int     // cap on timed jobs; 0 runs until the deadline
	rate          float64 // diagnose-open requests per second
	requests      int     // diagnose-open requests; 0 = rate × seconds
	warmRequests  int     // diagnose-open warm-up requests
	ladderDevices int     // devices each ladder rung diagnoses
	oneShots      int     // one-shots each ladder one-shot rung times
	setupRounds   int     // set-ups per run; setup_s is their median
}

// fill applies the workload's defaults to zero fields.
func (p *params) fill(def *workloadDef) {
	if p.jobDevices == 0 {
		p.jobDevices = def.jobDevices
	}
	if p.ladderDevices == 0 {
		p.ladderDevices = def.ladderDevices
	}
	if p.rate == 0 {
		p.rate = 600
	}
	if p.requests == 0 {
		p.requests = int(p.rate * p.seconds)
	}
	if p.warmRequests == 0 {
		p.warmRequests = 300
	}
	if p.oneShots == 0 {
		p.oneShots = 100
	}
	if p.setupRounds == 0 {
		p.setupRounds = 3
	}
	if p.spans == "" {
		p.spans = filepath.Join(p.dir, fmt.Sprintf("spans-%s-%d.jsonl", p.workload, p.seed))
	}
}

// more reports whether a closed loop starts operation i: while the
// deadline has not passed and the cap allows, and regardless of the
// deadline the first operation, or in a traced run the first two (one
// traced, one not).
func (p *params) more(i int, deadline time.Time) bool {
	if p.maxJobs > 0 && i >= p.maxJobs {
		return false
	}
	return i == 0 || (p.trace && i == 1) || time.Now().Before(deadline)
}

// outcome is the result line of one run.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process: set-up rounds, the timed
// window, the output checks and, when traced, the ladder.
func runOne(ctx context.Context, p params, notes io.Writer) (*outcome, error) {
	def, err := lookupWorkload(p.workload)
	if err != nil {
		return nil, err
	}
	p.fill(def)
	if err := os.MkdirAll(p.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(p.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	var tr *tracer
	if p.trace {
		tr = newTracer()
	}

	// Set up several times and keep the last system: setup_s is the
	// median, so one slow round does not decide it.
	var setups []float64
	var sys system
	for r := range p.setupRounds {
		e := &env{p: &p, def: def, dir: filepath.Join(scratch, fmt.Sprintf("setup%d", r)), tr: tr}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		sys = def.build(e)
		if err := sys.start(ctx); err != nil {
			sys.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < p.setupRounds-1 {
			sys.stop()
			// Return the discarded round's memory, so rounds do not
			// stack up in the resident-set high-water mark.
			debug.FreeOSMemory()
		}
	}
	defer sys.stop()

	runtime.GC()
	before := snapProc()
	win := sys.load(ctx, time.Now().Add(time.Duration(p.seconds*float64(time.Second))))
	after := snapProc()
	sys.verify(ctx, win)
	checked := time.Now()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	var lat, first, late, tracedLat, untracedLat []float64
	devices := 0
	for _, op := range win.ops {
		if op.failed {
			continue
		}
		devices += op.devices
		l := float64(op.latency) / 1e6
		lat = append(lat, l)
		first = append(first, float64(op.first)/1e6)
		late = append(late, float64(op.late)/1e6)
		if op.traced {
			tracedLat = append(tracedLat, l)
		} else {
			untracedLat = append(untracedLat, l)
		}
	}
	d := deltaProc(before, after)
	m := map[string]float64{}
	if devices > 0 {
		m["devices_per_s"] = float64(devices) / win.wall.Seconds()
		m["latency_p50_ms"] = median(lat)
		m["allocs_per_device"] = float64(d.mallocs) / float64(devices)
		m["alloc_bytes_per_device"] = float64(d.bytes) / float64(devices)
	}
	m["peak_rss_mb"] = rss
	m["setup_s"] = median(setups)
	fmt.Fprintf(notes, "set-ups: %.2fs each (%d), window: %.1fs, %d operations, checks: %.1fs\n",
		m["setup_s"], len(setups), d.wall.Seconds(), len(win.ops), checked.Sub(after.wall).Seconds())

	defs := endToEnd
	if p.trace {
		defs = perLayer
		for k, v := range sys.layer() {
			m[k] += v
		}
		sys.stop()
		le := &env{p: &p, def: def, dir: filepath.Join(scratch, "ladder"), tr: tr}
		if err := os.MkdirAll(le.dir, 0o755); err != nil {
			return nil, err
		}
		if err := runLadder(ctx, le, tr, m); err != nil {
			win.fail(-1, "%v", err)
		}
		fmt.Fprintf(notes, "ladder: %.1fs\n", time.Since(checked).Seconds())
		if devices > 0 {
			m["proc.cpu_us_per_device"] = float64(d.cpu) / 1e3 / float64(devices)
			m["proc.gc_cycles_per_1k_devices"] = float64(d.gcCycles) * 1000 / float64(devices)
		}
		m["proc.cpu_util"] = float64(d.cpu) / float64(d.wall)
		m["proc.gc_pause_ms"] = float64(d.gcPause) / 1e6
		m["run.latency_tail_pct"], m["run.latency_tail_ms"] = tail(lat)
		if tailOK(len(late), 0.99) {
			m["run.late_ms_p99"] = quantile(late, 0.99)
		} else {
			_, m["run.late_ms_p99"] = tail(late)
		}
		m["run.first_result_ms_p50"] = median(first)
		m["run.replay_devices_per_s"] = 0
		if len(win.replays) > 0 {
			m["run.replay_devices_per_s"] = median(win.replays)
		}
		if win.tallied > 0 {
			m["sim.cycles_per_device"] = float64(win.cycles) / float64(win.tallied)
			m["sim.located_per_device"] = float64(win.located) / float64(win.tallied)
		}
		m["trace.overhead_pct"] = 100 * (median(tracedLat)/median(untracedLat) - 1)
		var ops []span
		for _, s := range tr.snapshot() {
			if s.Trace != "ladder" {
				ops = append(ops, s)
			}
		}
		m["trace.self_pct"] = median(selfShares(ops))
		if err := tr.write(p.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(notes, "spans: %s\n", p.spans)
	}

	failed := min(win.failed(), len(win.ops))
	if win.runFails > 0 {
		failed = max(failed, 1)
	}
	for i, n := range win.notes {
		if i == 20 {
			fmt.Fprintf(notes, "... and %d more\n", len(win.notes)-i)
			break
		}
		fmt.Fprintln(notes, "check failed:", n)
	}
	o := &outcome{Correct: failed == 0, Attempted: len(win.ops), Failed: failed, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		v, ok := m[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			o.Correct = false
			fmt.Fprintf(notes, "metric %s not measured (%v)\n", def.Name, v)
			v = 0
		}
		o.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	return o, nil
}

// print writes every metric as "name value unit" in table order, then
// the result as the last line, a single JSON object.
func (o *outcome) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%s %s %s\n", d.Name, strconv.FormatFloat(o.Metrics[d.Name].Value, 'g', -1, 64), d.Unit)
	}
	b, err := json.Marshal(o)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare PARENT.json CHANGE.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Args[2], os.Args[3], os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload name; with -runs, a comma-separated list or \"all\"")
	flag.Int64Var(&p.seed, "seed", 1, "seed every job and request derives from")
	flag.Float64Var(&p.seconds, "seconds", 15, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&p.dir, "out", ".bench_build", "scratch directory for spools and spans")
	flag.StringVar(&p.spans, "spans", "", "spans file of a traced run (default OUT/spans-WORKLOAD-SEED.jsonl)")
	runs := flag.Int("runs", 0, "run each workload this many times, each in a fresh child process, and summarize")
	summary := flag.String("o", "", "with -runs: write every run's metrics to this JSON file")
	flag.Parse()
	p.trace = trace == 1

	if *runs > 0 {
		if err := repeat(p, *runs, *summary, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if p.workload == "" || p.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o, err := runOne(context.Background(), p, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if p.trace {
		defs = perLayer
	}
	if err := o.print(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !o.Correct {
		os.Exit(1)
	}
}

// workloadList resolves -workload for repeated runs.
func workloadList(arg string) ([]string, error) {
	if arg == "" || arg == "all" {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return names, nil
	}
	names := strings.Split(arg, ",")
	for _, n := range names {
		if _, err := lookupWorkload(n); err != nil {
			return nil, err
		}
	}
	return names, nil
}
