package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "devices_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"same code", higher, steady, scale(steady, 1.001), "flat"},
		{"faster", higher, steady, scale(steady, 1.2), "improved"},
		{"slower within bound", higher, steady, scale(steady, 0.95), "flat"},
		{"slower beyond bound", higher, steady, scale(steady, 0.8), "regressed"},
		{"latency up", lower, steady, scale(steady, 1.2), "regressed"},
		{"latency down", lower, steady, scale(steady, 0.8), "improved"},
		// Parent spread (IQR/median) far above the 10% bound.
		{"noisy parent", higher, []float64{50, 150, 80, 120, 60, 140, 100, 90, 110, 70}, scale(steady, 0.97), "unresolved"},
		// Every change run beats every parent run: resolved despite noise.
		{"noisy but dominated", higher, []float64{50, 60, 70, 80, 90, 55, 65, 75, 85, 95}, scale(steady, 1.5), "improved"},
		// Nine of ten pairs won, but the medians sit within the parent's
		// interquartile range: not a gain.
		{"wins inside the spread", higher, steady, []float64{100.5, 101.5, 99.5, 100.5, 102.5, 98.5, 100.5, 101.5, 99.5, 99}, "flat"},
		{"too few runs", higher, steady[:1], steady[:1], "unresolved"},
	} {
		if got := judge(c.d, c.parent, c.change); got.Kind != c.want {
			t.Errorf("%s: %s (delta %+.3f), want %s", c.name, got.Kind, got.Delta, c.want)
		}
	}
}

func TestCompareFilesRows(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f float64) string {
		set := runSet{Seconds: 10, Workloads: map[string]map[string][]float64{}}
		for _, w := range []string{"fleet-hetero", "diagnose-open"} {
			set.Workloads[w] = map[string][]float64{}
			for _, d := range endToEnd {
				for i := range 10 {
					v := 100 + float64(i%3)
					if w == "fleet-hetero" && d.Name == "devices_per_s" {
						v *= f
					}
					set.Workloads[w][d.Name] = append(set.Workloads[w][d.Name], v)
				}
			}
		}
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent, slower := write("parent.json", 1), write("change.json", 0.7)
	var out strings.Builder
	regressed, err := compareFiles(parent, slower, &out)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !regressed || len(rows) != 2 {
		t.Fatalf("regressed=%v, rows:\n%s", regressed, out.String())
	}
	if !strings.HasPrefix(rows[1], "fleet-hetero") || !strings.Contains(rows[1], "devices_per_s=regressed") ||
		strings.Contains(rows[0], "regressed") {
		t.Errorf("unexpected rows:\n%s", out.String())
	}
	if regressed, _ := compareFiles(parent, parent, &out); regressed {
		t.Error("a set compared with itself regressed")
	}
}
