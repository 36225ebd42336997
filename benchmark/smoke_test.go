package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload end to end at tiny sizes, traced, so
// the set-up rounds, the timed load, the output checks and the whole
// ladder execute (under -race too). Sizes: two jobs of 256 devices (8
// on the 512x100 plan, whose devices cost ~35x more) and 100 one-shots
// at 200/s; the job cap, not the deadline, ends the job workloads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			devices, ladder := 256, 64
			if w.name == "fleet-paper16" {
				devices, ladder = 8, 8
			}
			// One workload sets up twice, so tearing a round down and
			// building the next is covered once.
			rounds := 1
			if w.name == "fleet-hetero" {
				rounds = 2
			}
			p := params{
				workload: w.name, seed: 7, seconds: 60, trace: true, dir: t.TempDir(),
				jobDevices: devices, maxJobs: 2, ladderDevices: ladder,
				rate: 200, requests: 100, warmRequests: 10, oneShots: 3, setupRounds: rounds,
			}
			o, err := runOne(context.Background(), p, testWriter{t})
			if err != nil {
				t.Fatal(err)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Fatalf("outcome %+v", o)
			}
			for _, d := range perLayer {
				if _, ok := o.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			if got := o.Metrics["sim.cycles_per_device"].Value; got != float64(wantCycles(w.plan())) {
				t.Errorf("sim.cycles_per_device = %v, want %d", got, wantCycles(w.plan()))
			}
			if _, err := os.Stat(filepath.Join(p.dir, "spans-"+w.name+"-7.jsonl")); err != nil {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

// TestUntracedRunPrintsEndToEnd checks the default mode's output: every
// end-to-end metric as a line, then one JSON result line.
func TestUntracedRunPrintsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	p := params{workload: "fleet-hetero", seed: 3, seconds: 0.2, dir: t.TempDir(), jobDevices: 128, maxJobs: 3, setupRounds: 2}
	o, err := runOne(context.Background(), p, testWriter{t})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := o.print(&out, endToEnd); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(endToEnd)+1 {
		t.Fatalf("%d output lines:\n%s", len(lines), out.String())
	}
	var last outcome
	if err := json.Unmarshal([]byte(lines[len(endToEnd)]), &last); err != nil {
		t.Fatal(err)
	}
	if !last.Correct || last.Attempted != 3 || len(last.Metrics) != len(endToEnd) {
		t.Fatalf("result line %+v", last)
	}
	for _, d := range endToEnd {
		if v := last.Metrics[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
			t.Errorf("%s = %+v", d.Name, v)
		}
	}
}

// TestChecksCatchCorruption feeds the output checks results that differ
// from the reference and requires them to fail the operation.
func TestChecksCatchCorruption(t *testing.T) {
	def, err := lookupWorkload("memtestd-hetero")
	if err != nil {
		t.Fatal(err)
	}
	p := &params{seed: 5, jobDevices: 64}
	e := &env{p: p, def: def}
	good, err := reference(context.Background(), &window{}, 0, e.jobRequest(0))
	if err != nil {
		t.Fatal(err)
	}
	bad := good
	bad[0] ^= 1
	w := &window{ops: []opRecord{{summed: true, sum: good}, {summed: true, sum: bad}, {}}}
	verifyStreams(context.Background(), e, w)
	if w.ops[0].failed || !w.ops[1].failed || !w.ops[2].failed {
		t.Fatalf("stream checks: failed flags %v %v %v, want false true true", w.ops[0].failed, w.ops[1].failed, w.ops[2].failed)
	}

	f := &fleetSystem{e: &env{p: p, def: &workloads[0]}}
	b, err := oneShot(context.Background(), f.e.def.plan(), 11, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	// The second sample claims device 5, whose rendering differs.
	f.samples = []fleetSample{{op: 0, device: 4, seed: 11, sum: sum}, {op: 1, device: 5, seed: 11, sum: sum}}
	w = &window{ops: make([]opRecord, 2)}
	f.verify(context.Background(), w)
	if w.ops[0].failed || !w.ops[1].failed {
		t.Fatalf("fleet checks: failed flags %v %v, want false true", w.ops[0].failed, w.ops[1].failed)
	}
}

// testWriter sends a run's notes to the test log.
type testWriter struct{ t *testing.T }

func (w testWriter) Write(b []byte) (int, error) {
	w.t.Log(strings.TrimSpace(string(b)))
	return len(b), nil
}
