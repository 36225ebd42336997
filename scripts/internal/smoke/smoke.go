// Package smoke holds what the real-process smoke commands
// (scripts/resumesmoke, scripts/shardsmoke, scripts/chaossmoke) share:
// building and starting the daemons, waiting on them, reading raw
// result streams and /metrics, and the in-process reference stream the
// served one must match byte for byte. Each command keeps its own plan,
// scenario and assertions.
package smoke

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/memtest"
	"repro/service"
	"repro/service/client"
)

// Build compiles ./cmd/<name> into dir and returns the binary's path.
// Run the smokes from the repository root.
func Build(dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		return "", fmt.Errorf("building %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// Start launches a daemon with its output on stderr.
func Start(bin string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd, cmd.Start()
}

// FreeAddr grabs an ephemeral loopback port and releases it for a
// daemon to listen on.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// WaitHealthy polls base's /v1/healthz until the daemon answers.
func WaitHealthy(base string) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", base, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// WaitJob polls a job until it reaches a terminal state, failing once
// patience runs out.
func WaitJob(ctx context.Context, c *client.Client, id string, patience time.Duration) (service.JobStatus, error) {
	deadline := time.Now().Add(patience)
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, fmt.Errorf("polling job %s: %w", id, err)
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s never finished: %+v", id, st)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// ReferenceLines runs the request's session in-process and returns the
// NDJSON lines a single fault-free node streams for devices
// [0, Devices).
func ReferenceLines(req service.JobRequest) ([]string, error) {
	s, err := memtest.New(req.Plan, memtest.WithSeed(req.Seed), memtest.WithDRF())
	if err != nil {
		return nil, err
	}
	var lines []string
	for dr, err := range s.RunFleet(context.Background(), req.Devices) {
		if err != nil {
			return nil, err
		}
		data, err := json.Marshal(dr)
		if err != nil {
			return nil, err
		}
		lines = append(lines, string(data))
	}
	return lines, nil
}

// RawLines reads a results stream as raw NDJSON lines.
func RawLines(url string) ([]string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			lines = append(lines, sc.Text())
		}
	}
	return lines, sc.Err()
}

// Compare reports the first difference between a served stream and its
// reference.
func Compare(got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("stream has %d lines, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("line %d differs:\nserver   : %s\nreference: %s", i, got[i], want[i])
		}
	}
	return nil
}

// ScrapeMetric fetches base+"/metrics" and sums every series of one
// family (all label sets), erroring when the family is absent.
func ScrapeMetric(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	sum, found := 0.0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
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
			return 0, fmt.Errorf("bad sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("metric %s absent from %s/metrics", name, base)
	}
	return sum, nil
}
