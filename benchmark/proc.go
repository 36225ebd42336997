package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
)

// procSnap is the process-wide state the timed window is measured
// between: wall clock, CPU time and allocator counters.
type procSnap struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
}

func snapProc() procSnap {
	var s procSnap
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.wall = time.Now()
	return s
}

// procDelta is what happened in the process between two snapshots.
type procDelta struct {
	wall, cpu, gcPause time.Duration
	mallocs, bytes     uint64
	gcCycles           uint32
}

func deltaProc(a, b procSnap) procDelta {
	return procDelta{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		gcPause:  time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		mallocs:  b.mem.Mallocs - a.mem.Mallocs,
		bytes:    b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcCycles: b.mem.NumGC - a.mem.NumGC,
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// scrape renders a metrics registry in the Prometheus text format, as
// GET /metrics would, and returns the sum of every series of the named
// family. Rendering in process keeps the scrape off the connection
// budget.
func scrape(reg *obs.Registry, family string) float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf) //nolint:errcheck // writes to a bytes.Buffer cannot fail
	total := 0.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if base, _, found := strings.Cut(name, "{"); found {
			name = base
		}
		if name != family {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
			total += v
		}
	}
	return total
}
