package main

// metricDef names one reported metric. Bound, on end-to-end metrics, is
// the share of the parent's median by which the metric may worsen
// before a change counts as a regression. BENCHMARK.json at the
// repository root carries the same table; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// lowerIsBetter reports the metric's direction.
func (m metricDef) lowerIsBetter() bool { return m.Better == "lower" }

// endToEnd is what a user of the fleet service sees. Every workload
// reports every one of them: an operation is a fleet job on the four
// job workloads and a one-shot request on diagnose-open. The bounds
// are as tight as the run-to-run spread on a shared two-core machine
// allows (README.md has the measured sets): wall-clock and memory
// metrics move by up to a quarter between quiet and contended periods,
// allocation counts by about one percent.
var endToEnd = []metricDef{
	{Name: "devices_per_s", Unit: "devices/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_device", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_device", Unit: "B", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer comes from the traced run: the ladder times each layer's
// exported entry points on the workload's first devices at one device
// worker, and the timed window adds process and run diagnostics.
var perLayer = []metricDef{
	{Name: "config.build_us_per_device", Unit: "us", Better: "lower"},
	{Name: "config.faults_per_device", Unit: "count", Better: "lower"},
	{Name: "bank.load_us_per_device", Unit: "us", Better: "lower"},
	{Name: "bank.pass_us_per_device", Unit: "us", Better: "lower"},
	{Name: "bank.bankable_ratio", Unit: "ratio", Better: "higher"},
	{Name: "bank.allocs_per_device", Unit: "count", Better: "lower"},
	{Name: "memtest.fleet_us_per_device", Unit: "us", Better: "lower"},
	{Name: "memtest.evaluate_us_per_device", Unit: "us", Better: "lower"},
	{Name: "memtest.scaling_2w", Unit: "ratio", Better: "higher"},
	{Name: "memtest.yield_gap_tail_us", Unit: "us", Better: "lower"},
	{Name: "memtest.oneshot_us", Unit: "us", Better: "lower"},
	{Name: "encode.us_per_device", Unit: "us", Better: "lower"},
	{Name: "encode.bytes_per_device", Unit: "B", Better: "lower"},
	{Name: "encode.allocs_per_device", Unit: "count", Better: "lower"},
	{Name: "store.append_us_per_device", Unit: "us", Better: "lower"},
	{Name: "store.read_us_per_device", Unit: "us", Better: "lower"},
	{Name: "store.flushes_per_job", Unit: "count", Better: "lower"},
	{Name: "service.follow_us_per_device", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.first_line_ms", Unit: "ms", Better: "lower"},
	{Name: "service.compute_ahead_devices_p50", Unit: "count", Better: "lower"},
	{Name: "service.diagnose_us", Unit: "us", Better: "lower"},
	{Name: "http.raw_us_per_device", Unit: "us", Better: "lower"},
	{Name: "http.decode_us_per_device", Unit: "us", Better: "lower"},
	{Name: "http.diagnose_overhead_us", Unit: "us", Better: "lower"},
	{Name: "coord.overhead_us_per_device", Unit: "us", Better: "lower"},
	{Name: "coord.merge_lag_devices_p50", Unit: "count", Better: "lower"},
	{Name: "coord.first_line_ms", Unit: "ms", Better: "lower"},
	{Name: "coord.steals", Unit: "count", Better: "lower"},
	{Name: "coord.redispatches", Unit: "count", Better: "lower"},
	{Name: "coord.reconnects", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_us_per_device", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "cores", Better: "higher"},
	{Name: "proc.gc_cycles_per_1k_devices", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "run.latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "run.latency_tail_pct", Unit: "%", Better: "higher"},
	{Name: "run.late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "run.first_result_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "run.replay_devices_per_s", Unit: "devices/s", Better: "higher"},
	{Name: "sim.cycles_per_device", Unit: "cycles", Better: "lower"},
	{Name: "sim.located_per_device", Unit: "cells", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.self_pct", Unit: "%", Better: "lower"},
}
