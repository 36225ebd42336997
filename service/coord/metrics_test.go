package coord_test

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/service"
	"repro/service/coord"
)

// metricValue sums every series of one family in an exposition body,
// failing when the family is absent.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s absent from exposition:\n%s", name, body)
	}
	return sum
}

// scrape fetches one /metrics exposition body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestCoordMetricsEndpoint: a metered coordinator exposes the coord_*
// series — dispatch, merged lines, per-worker fleet gauges — on
// /metrics after a sharded job completes.
func TestCoordMetricsEndpoint(t *testing.T) {
	w1 := newWorker(t, service.Config{Jobs: 2, FleetWorkers: 1})
	w2 := newWorker(t, service.Config{Jobs: 2, FleetWorkers: 1})
	c, _, ts := newCoord(t, coord.Config{
		Workers:  []string{w1.URL, w2.URL},
		MinShard: 2,
		Backoff:  fastBackoff(),
		Metrics:  obs.NewRegistry(),
	})
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("planned %d shards, want 2", len(st.Shards))
	}
	n := 0
	for _, err := range c.Results(ctx, st.ID) {
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 6 {
		t.Fatalf("merged %d lines, want 6", n)
	}

	// The job's terminal accounting lands just after its merged stream
	// ends, so scrape until it shows (or 10 s pass).
	var body string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		body = scrape(t, ts.URL+"/metrics")
		if strings.Contains(body, `coord_jobs_finished_total{state="done"} 1`) || time.Now().After(deadline) {
			break
		}
	}

	if got := metricValue(t, body, "coord_jobs_submitted_total"); got != 1 {
		t.Errorf("coord_jobs_submitted_total = %g, want 1", got)
	}
	if got := metricValue(t, body, "coord_merged_lines_total"); got != 6 {
		t.Errorf("coord_merged_lines_total = %g, want 6", got)
	}
	if got := metricValue(t, body, "coord_shard_dispatch_total"); got < 2 {
		t.Errorf("coord_shard_dispatch_total = %g, want >= 2", got)
	}
	// Both workers probed healthy → their up gauges sum to 2.
	if got := metricValue(t, body, "coord_worker_up"); got != 2 {
		t.Errorf("coord_worker_up sum = %g, want 2", got)
	}
	if !strings.Contains(body, `coord_jobs_finished_total{state="done"} 1`) {
		t.Errorf("coord_jobs_finished_total{state=\"done\"} series missing:\n%s", body)
	}
	// Redispatch counter present (zero) even before any worker death —
	// the smoke script asserts its increment after a SIGKILL.
	if got := metricValue(t, body, "coord_shard_redispatch_total"); got != 0 {
		t.Errorf("coord_shard_redispatch_total = %g, want 0 on a healthy run", got)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.UptimeSec <= 0 || h.Version == "" {
		t.Errorf("healthz uptime/version not filled: %+v", h)
	}
}
