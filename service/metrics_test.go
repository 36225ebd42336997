package service_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/service"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue sums the values of every series of one family in an
// exposition body (all label sets), failing when the family is absent.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	sum, found := 0.0, false
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Exact family only: the next byte must open labels or be the
		// value separator, not extend the name (devices_per_sec vs
		// devices_per_sec_foo).
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

// TestMetricsEndpoint runs one job to completion on a metered server
// and checks the /metrics exposition carries the job, device, store
// and fleet series with consistent values.
func TestMetricsEndpoint(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 4, Metrics: obs.NewRegistry()})
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for dr, err := range c.Results(ctx, st.ID) {
		if err != nil {
			t.Fatal(err)
		}
		_ = dr
	}

	// The job's terminal accounting lands just after its stream ends.
	var body string
	eventually(func() bool {
		body = scrape(t, ts)
		return strings.Contains(body, `jobs_finished_total{state="done"} 1`)
	})
	checks := map[string]float64{
		"jobs_submitted_total":       1,
		"jobs_finished_total":        1, // summed across state labels
		"devices_diagnosed_total":    5,
		"devices_completed_total":    5,
		"store_appends_total":        5,
		"jobs_queue_depth":           0,
		"uptime_seconds":             -1, // presence only
		"fleet_workers":              -1,
		"fleet_worker_grants_total":  -1,
		"store_appended_bytes_total": -1,
		"job_duration_seconds_count": 1,
	}
	for name, want := range checks {
		got := metricValue(t, body, name)
		if want >= 0 && got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if strings.Contains(body, `jobs_finished_total{state="done"} 1`) == false {
		t.Errorf("jobs_finished_total{state=\"done\"} series missing:\n%s", body)
	}
	if metricValue(t, body, "store_appended_bytes_total") <= 0 {
		t.Errorf("store_appended_bytes_total not positive")
	}

	// The terminal status carries computed progress, and healthz the
	// uptime/version/rate triple.
	fin, err := c.Job(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.ElapsedSec <= 0 || fin.DevicesPerSec <= 0 {
		t.Errorf("progress fields not filled: elapsed=%g rate=%g", fin.ElapsedSec, fin.DevicesPerSec)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.UptimeSec <= 0 {
		t.Errorf("healthz uptime_sec = %g, want > 0", h.UptimeSec)
	}
	if h.Version == "" {
		t.Errorf("healthz version empty")
	}
}

// TestMetricsDisabled: an unmetered server has no /metrics route and
// its jobs still run — the nil-registry no-op path end to end.
func TestMetricsDisabled(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1})
	ctx := context.Background()
	st, err := c.Submit(ctx, service.JobRequest{Plan: testPlan(), Devices: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range c.Results(ctx, st.ID) {
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unmetered GET /metrics: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestMetricsCountCancelledWhileQueued: a job cancelled before it ever
// started still reaches a terminal state, so jobs_finished_total
// counts it — once, under state="cancelled".
func TestMetricsCountCancelledWhileQueued(t *testing.T) {
	c, _, ts := newTestServer(t, service.Config{Jobs: 1, Queue: 2, Metrics: obs.NewRegistry()})
	e := newBlockEngine(t, "block-metrics-cancel")
	ctx := context.Background()
	req := service.JobRequest{Plan: testPlan(), Devices: 1, Scheme: e.name}
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	e.awaitStart(t) // the only scheduler worker is parked in the first job
	queued, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, queued.ID, service.StateCancelled)
	body := scrape(t, ts)
	if !strings.Contains(body, `jobs_finished_total{state="cancelled"} 1`) {
		t.Errorf("cancelled-while-queued job not counted:\n%s", body)
	}
	if got := metricValue(t, body, "jobs_finished_total"); got != 1 {
		t.Errorf("jobs_finished_total = %g, want 1 (the parked job is still running)", got)
	}
}
