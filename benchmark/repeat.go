package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runSet is every run of a -runs invocation: per workload, per
// end-to-end metric, one value per run in run order.
type runSet struct {
	Seconds   float64                         `json:"seconds"`
	Workloads map[string]map[string][]float64 `json:"workloads"`
}

// repeat runs each workload `runs` times, each run a fresh child
// process of this binary with seed p.seed+i, alternating the workload
// order between rounds so drift on a shared machine spreads evenly. It
// prints the median and quartiles of every end-to-end metric and, when
// out is set, writes the runs for compare.
func repeat(p params, runs int, out string, w io.Writer) error {
	names, err := workloadList(p.workload)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Seconds: p.seconds, Workloads: map[string]map[string][]float64{}}
	for i := range runs {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cmd := exec.Command(exe,
				"-workload", name, "-seed", strconv.FormatInt(p.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", "0", "-out", p.dir)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			o, err := lastLine(stdout)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", name, i, err)
			}
			if set.Workloads[name] == nil {
				set.Workloads[name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				set.Workloads[name][d.Name] = append(set.Workloads[name][d.Name], o.Metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "run %d %s done\n", i, name)
		}
	}
	for _, name := range names {
		fmt.Fprintf(w, "%s (%d runs)\n", name, runs)
		for _, d := range endToEnd {
			vs := set.Workloads[name][d.Name]
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(w, "  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g spread %5.2f%% (bound %.0f%%) %s\n",
				d.Name, q2, q1, q3, 100*(q3-q1)/q2, 100*d.Bound, d.Unit)
		}
	}
	if out == "" {
		return nil
	}
	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, b, 0o644)
}

// lastLine parses a run's result line and requires it to be correct.
func lastLine(stdout []byte) (*outcome, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	var o outcome
	if err := json.Unmarshal(last, &o); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	if !o.Correct {
		return nil, fmt.Errorf("run failed its output checks (%d of %d failed)", o.Failed, o.Attempted)
	}
	return &o, nil
}

// verdict is compare's judgement of one metric on one workload.
type verdict struct {
	Kind  string  // improved, regressed, flat or unresolved
	Delta float64 // (change median - parent median) / parent median
}

// judge applies the benchmark's rule to one metric. A change improved
// it when it wins at least nine tenths of the run pairs (ties count for
// neither side) and the medians differ by more than the parent's
// interquartile range; it regressed when its median is worse than the
// parent's by more than the metric's bound. When the parent's own
// spread exceeds the bound the metric is unresolved, unless every run
// of the change beats every run of the parent.
func judge(d metricDef, parent, change []float64) verdict {
	if len(parent) < 2 || len(change) < 2 {
		return verdict{Kind: "unresolved", Delta: math.NaN()}
	}
	better := func(a, b float64) bool {
		if d.lowerIsBetter() {
			return a < b
		}
		return a > b
	}
	mp, mc := median(parent), median(change)
	v := verdict{Delta: (mc - mp) / mp}
	worse := v.Delta
	if !d.lowerIsBetter() {
		worse = -worse
	}
	q1, _, q3 := quartiles(parent)
	wins, pairs := 0, min(len(parent), len(change))
	for i := range pairs {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case wins*10 >= pairs*9 && worse < 0 && math.Abs(mc-mp) > q3-q1:
		v.Kind = "improved"
	case spread(parent) > d.Bound && !allBetter:
		v.Kind = "unresolved"
	case worse > d.Bound:
		v.Kind = "regressed"
	default:
		v.Kind = "flat"
	}
	return v
}

// compareFiles reads two -runs summaries, the parent's first, and
// prints one row per workload with every end-to-end metric's verdict.
// It reports whether any metric regressed.
func compareFiles(parentPath, changePath string, w io.Writer) (bool, error) {
	var sets [2]runSet
	for i, path := range []string{parentPath, changePath} {
		b, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(b, &sets[i]); err != nil {
			return false, fmt.Errorf("%s: %w", path, err)
		}
	}
	if sets[0].Seconds != sets[1].Seconds {
		return false, fmt.Errorf("run lengths differ: %gs vs %gs", sets[0].Seconds, sets[1].Seconds)
	}
	var names []string
	for name := range sets[0].Workloads {
		names = append(names, name)
	}
	slices.Sort(names)
	regressed := false
	for _, name := range names {
		fmt.Fprintf(w, "%-16s", name)
		for _, d := range endToEnd {
			v := judge(d, sets[0].Workloads[name][d.Name], sets[1].Workloads[name][d.Name])
			regressed = regressed || v.Kind == "regressed"
			fmt.Fprintf(w, "  %s=%s(%+.1f%%)", d.Name, v.Kind, 100*v.Delta)
		}
		fmt.Fprintln(w)
	}
	return regressed, nil
}
