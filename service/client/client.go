// Package client is the typed Go client for the memtestd service: it
// round-trips the same wire types the server speaks (repro/service)
// and exposes result streaming with the same iter.Seq2 shape as
// memtest.Session.RunFleet, so a consumer can switch between
// in-process and over-the-wire diagnosis without restructuring.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/memtest"
	"repro/service"
)

// maxLine bounds one NDJSON result line (a full per-device Result with
// failure records can be large).
const maxLine = 16 << 20

// APIError is a non-2xx response, carrying the server's error
// envelope.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the server's error string.
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("memtestd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// JobError is a terminal {"error": ...} line in a results stream: the
// job failed or was cancelled server-side while the stream was open.
type JobError struct {
	Message string
}

func (e *JobError) Error() string { return fmt.Sprintf("memtestd job: %s", e.Message) }

// Client talks to one memtestd instance.
type Client struct {
	base string
	hc   *http.Client
}

// New returns a client for the server at base (e.g.
// "http://localhost:8347"). A nil http.Client selects
// http.DefaultClient; pass a custom one for timeouts or transports.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Base returns the server base URL this client talks to.
func (c *Client) Base() string { return c.base }

// do issues one JSON round-trip; out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// apiError reads a failed response's error envelope.
func apiError(resp *http.Response) error {
	var eb service.ErrorBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxLine)).Decode(&eb); err != nil || eb.Error == "" {
		eb.Error = resp.Status
	}
	return &APIError{StatusCode: resp.StatusCode, Message: eb.Error}
}

// Submit enqueues a fleet job and returns its accepted status.
func (c *Client) Submit(ctx context.Context, req service.JobRequest) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st)
	return st, err
}

// Diagnose runs one device synchronously and returns the full result.
func (c *Client) Diagnose(ctx context.Context, req service.JobRequest) (*memtest.Result, error) {
	var res memtest.Result
	if err := c.do(ctx, http.MethodPost, "/v1/diagnose", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists every job the server knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]service.JobStatus, error) {
	var out []service.JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// Cancel stops a job and returns its status as of the cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Schemes lists the engine names registered on the server.
func (c *Client) Schemes(ctx context.Context) ([]string, error) {
	var out []string
	err := c.do(ctx, http.MethodGet, "/v1/schemes", nil, &out)
	return out, err
}

// Health fetches the server's capacity/load snapshot.
func (c *Client) Health(ctx context.Context) (service.Health, error) {
	var h service.Health
	err := c.do(ctx, http.MethodGet, "/v1/healthz", nil, &h)
	return h, err
}

// AddWorker joins a memtestd worker to a coordinator's fleet
// (POST /v1/workers) and returns the worker's probed state. Only
// memtest-coord serves this route; a single-node memtestd answers 404.
func (c *Client) AddWorker(ctx context.Context, workerURL string) (service.WorkerHealth, error) {
	var wh service.WorkerHealth
	err := c.do(ctx, http.MethodPost, "/v1/workers", service.WorkerRef{URL: workerURL}, &wh)
	return wh, err
}

// RemoveWorker drops a worker from a coordinator's fleet
// (DELETE /v1/workers?url=...); shards in flight on it re-dispatch to
// the survivors.
func (c *Client) RemoveWorker(ctx context.Context, workerURL string) error {
	return c.do(ctx, http.MethodDelete, "/v1/workers?url="+url.QueryEscape(workerURL), nil, nil)
}

// Workers fetches a coordinator's cached per-worker fleet view
// (GET /v1/workers).
func (c *Client) Workers(ctx context.Context) ([]service.WorkerHealth, error) {
	var out []service.WorkerHealth
	err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out)
	return out, err
}

// Backoff shapes a reconnecting stream's retry schedule: delays double
// from Initial up to Max with jitter (each sleep is drawn uniformly
// from [d/2, d]), and the stream gives up after Attempts consecutive
// failures. The failure counter resets whenever a connection makes
// progress — yields at least one new line — so a long job survives any
// number of separate interruptions, while a server that is truly down
// is abandoned promptly. The zero value selects the defaults.
type Backoff struct {
	// Initial is the first retry delay (default 100ms).
	Initial time.Duration
	// Max caps the doubled delay (default 5s).
	Max time.Duration
	// Attempts is the consecutive-failure budget (default 8).
	Attempts int
}

// withDefaults fills zero fields with the package defaults.
func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 100 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Max < b.Initial {
		b.Max = b.Initial
	}
	if b.Attempts <= 0 {
		b.Attempts = 8
	}
	return b
}

// delay returns the jittered sleep before retry number attempt (1-based).
func (b Backoff) delay(attempt int) time.Duration {
	d := b.Initial
	for i := 1; i < attempt && d < b.Max; i++ {
		d *= 2
	}
	d = min(d, b.Max)
	// Uniform over [d/2, d]: jitter de-synchronizes a fleet of clients
	// reconnecting to a restarted server without collapsing the floor.
	return d/2 + rand.N(d/2+1)
}

// ResultsOption tunes one Results stream; see WithOffset,
// WithCancelOnDisconnect and WithReconnect.
type ResultsOption func(*resultsConfig)

type resultsConfig struct {
	offset             int
	cancelOnDisconnect bool
	reconnect          bool
	backoff            Backoff
	stats              *StreamStats
}

// StreamStats accumulates a reconnecting stream's self-healing
// activity. One StreamStats may be shared by any number of concurrent
// streams (the fields are atomics); memtest-coord attaches one to every
// shard stream and exposes the totals as coord_stream_* metrics.
type StreamStats struct {
	// Reconnects counts reconnect attempts after a retryable failure.
	Reconnects atomic.Int64
	// BackoffNanos sums the scheduled backoff sleeps, in nanoseconds
	// (scheduled, not elapsed: a context cancelling mid-sleep still
	// counted the full delay).
	BackoffNanos atomic.Int64
	// LinesResumed sums the already-delivered lines each reconnect
	// skipped by re-requesting at ?offset= — the re-transfer the resume
	// protocol avoided.
	LinesResumed atomic.Int64
}

// WithStreamStats attaches a stats accumulator to the stream; pass the
// same one to many streams for fleet-wide totals.
func WithStreamStats(s *StreamStats) ResultsOption {
	return func(c *resultsConfig) { c.stats = s }
}

// WithOffset skips the first n spooled result lines — the pagination
// hook: resume a stream that broke after n devices, or page through a
// finished job's spool window by window, without re-transferring what
// was already read.
func WithOffset(n int) ResultsOption {
	return func(c *resultsConfig) { c.offset = n }
}

// WithCancelOnDisconnect makes the server cancel the job if this
// reader goes away before the stream completes (including via an
// early break, which closes the connection) — the tail-and-own mode
// the one-client-per-job workflow uses. Ignored when WithReconnect is
// also set: a self-healing stream's whole point is that its
// disconnects are not abandonment.
func WithCancelOnDisconnect() ResultsOption {
	return func(c *resultsConfig) { c.cancelOnDisconnect = true }
}

// WithReconnect makes the stream self-healing: when the connection
// drops mid-stream (transport error, a line torn by a dying server, or
// a 5xx from a server mid-restart), the client waits per the Backoff
// schedule and reconnects with ?offset= set to the number of lines
// already delivered, so the consumer sees one seamless, gap-free,
// duplicate-free stream across any number of server restarts. Job-
// level errors (*JobError) and client mistakes (4xx) are never
// retried, and ctx cancellation always wins immediately.
func WithReconnect(b Backoff) ResultsOption {
	return func(c *resultsConfig) {
		c.reconnect = true
		c.backoff = b.withDefaults()
	}
}

// errStopped signals that the consumer broke out of the yield loop —
// not a failure, nothing more to deliver.
var errStopped = errors.New("client: consumer stopped")

// deviceLine is how every DeviceResult line starts; the terminal error
// envelope starts with {"error":.
var deviceLine = []byte(`{"device":`)

// Results tails a job's NDJSON result stream, replaying spooled
// devices and then following live ones until the job finishes. The
// iterator mirrors Session.RunFleet: it yields one DeviceResult per
// line, or a single terminal error — *JobError when the job failed or
// was cancelled server-side, ctx.Err() when ctx ends first. With
// WithReconnect, connection failures are retried with backoff instead
// of surfacing, resuming where the stream left off.
//
// A line starting with {"device": is decoded in one pass by
// memtest.DecodeDeviceResult, which parses the canonical layout the
// server writes directly and hands any other line to json.Unmarshal,
// so the value is always encoding/json's. Any other line is probed for
// the {"error":...} envelope.
func (c *Client) Results(ctx context.Context, id string, opts ...ResultsOption) iter.Seq2[memtest.DeviceResult, error] {
	var rc resultsConfig
	for _, o := range opts {
		o(&rc)
	}
	return func(yield func(memtest.DeviceResult, error) bool) {
		sink := func(line []byte) (bool, error) {
			if bytes.HasPrefix(line, deviceLine) {
				var dr memtest.DeviceResult
				if err := memtest.DecodeDeviceResult(line, &dr); err != nil {
					// A torn line — a server killed mid-write sends half a
					// result. Retryable: the offset re-requests the whole line.
					return false, badLine(err)
				}
				return yield(dr, nil), nil
			}
			// A DeviceResult line never carries an "error" key; the
			// terminal error envelope carries nothing else, so one
			// decode discriminates both shapes.
			var probe struct {
				memtest.DeviceResult
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				return false, badLine(err)
			}
			if probe.Error != "" {
				return false, &JobError{Message: probe.Error}
			}
			return yield(probe.DeviceResult, nil), nil
		}
		c.follow(ctx, id, rc, sink, func(err error) { yield(memtest.DeviceResult{}, err) })
	}
}

// RawResults tails a job's NDJSON stream with the same contract as
// Results — replay, live follow, optional self-healing reconnect —
// but yields each device line's raw bytes instead of decoding it: the
// passthrough memtest-coord uses to merge worker streams
// byte-identically without a decode/re-encode round trip. Every line
// is still validated before it is yielded (a torn line triggers
// reconnect, a terminal {"error":...} envelope surfaces as *JobError,
// never as a line). A device line in the canonical layout the server
// writes passes memtest.SkimDeviceResult, which validates it without
// building it or allocating; any other line is fully parsed and probed
// for the error envelope. The yielded slice is reused by the scanner —
// copy it before retaining it past the yield.
func (c *Client) RawResults(ctx context.Context, id string, opts ...ResultsOption) iter.Seq2[[]byte, error] {
	var rc resultsConfig
	for _, o := range opts {
		o(&rc)
	}
	return func(yield func([]byte, error) bool) {
		sink := func(line []byte) (bool, error) {
			if memtest.SkimDeviceResult(line) {
				return yield(line, nil), nil
			}
			var probe struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(line, &probe); err != nil {
				return false, badLine(err)
			}
			if probe.Error != "" {
				return false, &JobError{Message: probe.Error}
			}
			return yield(line, nil), nil
		}
		c.follow(ctx, id, rc, sink, func(err error) { yield(nil, err) })
	}
}

func badLine(err error) error { return fmt.Errorf("memtestd: bad stream line: %w", err) }

// follow drives the reconnect loop Results and RawResults share: it
// opens results connections starting at rc.offset, pumps each line
// through sink, and — with reconnect enabled — retries retryable
// failures per the backoff schedule, re-requesting at the delivered
// line count. fail delivers the terminal error when the stream cannot
// continue.
func (c *Client) follow(ctx context.Context, id string, rc resultsConfig, sink func(line []byte) (bool, error), fail func(error)) {
	next := rc.offset // next spool line to request
	resumedMark := next
	attempts := 0
	for {
		n, err := c.streamOnce(ctx, id, rc, next, sink)
		next += n
		if err == nil || errors.Is(err, errStopped) {
			return // clean terminal end, or the consumer broke out
		}
		if n > 0 {
			// Progress resets the failure budget: only consecutive
			// fruitless attempts count against Backoff.Attempts.
			attempts = 0
		}
		if !rc.reconnect || !retryable(ctx, err) {
			fail(err)
			return
		}
		attempts++
		if attempts >= rc.backoff.Attempts {
			fail(fmt.Errorf(
				"memtestd: stream gave up after %d reconnect attempts: %w", attempts, err))
			return
		}
		d := rc.backoff.delay(attempts)
		if s := rc.stats; s != nil {
			s.Reconnects.Add(1)
			s.BackoffNanos.Add(int64(d))
			s.LinesResumed.Add(int64(next - resumedMark))
			resumedMark = next
		}
		if !sleepCtx(ctx, d) {
			fail(ctx.Err())
			return
		}
	}
}

// streamOnce opens one results connection at spool offset `next` and
// pumps it until it ends, handing each non-blank line to sink (which
// reports whether to continue, or the line's failure). It returns how
// many lines sink accepted plus nil for a clean job-terminal end,
// errStopped when the consumer broke out, or the connection's failure.
func (c *Client) streamOnce(ctx context.Context, id string, rc resultsConfig, next int, sink func([]byte) (bool, error)) (int, error) {
	q := url.Values{}
	if rc.cancelOnDisconnect && !rc.reconnect {
		q.Set("cancel_on_disconnect", "true")
	}
	if next > 0 {
		q.Set("offset", strconv.Itoa(next))
	}
	path := c.base + "/v1/jobs/" + url.PathEscape(id) + "/results"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return 0, apiError(resp)
	}
	yielded := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), maxLine)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		cont, err := sink(line)
		if err != nil {
			return yielded, err
		}
		if !cont {
			return yielded, errStopped
		}
		yielded++
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		return yielded, err
	}
	return yielded, nil
}

// retryable classifies a stream failure for the reconnect loop: the
// consumer's context ending, a server-reported job outcome (*JobError)
// and client mistakes (4xx) are final; transport failures, torn lines
// and 5xx (a server mid-restart) are worth another attempt.
func retryable(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	var jobErr *JobError
	if errors.As(err, &jobErr) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	return true
}

// sleepCtx sleeps d or until ctx ends; it reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Run is the submit-and-tail convenience: it submits the job and
// streams its results. Without options it requests cancel-on-
// disconnect semantics, so breaking out of the loop (or cancelling
// ctx) cancels the job server-side. Pass WithReconnect to flip the
// workflow to fire-and-follow: the job survives disconnects and the
// stream heals across server restarts. The accepted job's ID is
// reported through info when non-nil.
func (c *Client) Run(ctx context.Context, req service.JobRequest, info *service.JobStatus, opts ...ResultsOption) iter.Seq2[memtest.DeviceResult, error] {
	return func(yield func(memtest.DeviceResult, error) bool) {
		st, err := c.Submit(ctx, req)
		if err != nil {
			yield(memtest.DeviceResult{}, err)
			return
		}
		if info != nil {
			*info = st
		}
		var probe resultsConfig
		for _, o := range opts {
			o(&probe)
		}
		if !probe.reconnect {
			opts = append(opts, WithCancelOnDisconnect())
		}
		for dr, err := range c.Results(ctx, st.ID, opts...) {
			if !yield(dr, err) {
				return
			}
			if err != nil {
				return
			}
		}
	}
}
