package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/memtest"
)

// maxRequestBody bounds submission bodies; plans are small.
const maxRequestBody = 1 << 20

// Backend is what the HTTP front-end serves: the single-node Manager,
// or memtest-coord's fan-out coordinator — both speak the same wire
// API, so every client (and the coordinator itself, which is a client
// of its workers) works against either unchanged.
type Backend interface {
	// Submit validates and enqueues a fleet job.
	Submit(req JobRequest) (JobStatus, error)
	// Status returns one job's current state; Jobs lists every retained
	// job in submission order.
	Status(id string) (JobStatus, error)
	Jobs() []JobStatus
	// Cancel stops a job; see JobTable.Cancel for the state contract.
	Cancel(id string) (JobStatus, error)
	// FollowBatches streams a job's result lines from line offset
	// onward until the job ends or ctx is cancelled, calling flush once
	// after each wake's batch; it returns the job's terminal error
	// message and the follower's own error, exactly one of which is
	// meaningful. See JobTable.FollowBatches.
	FollowBatches(ctx context.Context, id string, offset int, emit func([]byte) error, flush func() error) (string, error)
	// Diagnose runs one device synchronously.
	Diagnose(ctx context.Context, req JobRequest) (*memtest.Result, error)
	// Health reports capacity, load and capability.
	Health() Health
}

// Membership is the optional backend extension behind the fleet
// membership routes. A backend implementing it (memtest-coord's
// coordinator) gets POST/GET/DELETE /v1/workers mounted: join a worker
// mid-flight, list the cached per-worker view, or remove one (its
// in-flight shards re-dispatch to the survivors). The single-node
// Manager does not implement it, so a memtestd serves 404 there.
type Membership interface {
	// AddWorker joins a worker by base URL (idempotent) and returns its
	// probed state.
	AddWorker(url string) (WorkerHealth, error)
	// RemoveWorker drops a worker from the membership table;
	// ErrUnknownWorker when no such worker is configured.
	RemoveWorker(url string) error
	// Workers returns the cached per-worker fleet view.
	Workers() []WorkerHealth
}

// Server is the memtestd HTTP front-end over one Backend. It is an
// http.Handler; see the package documentation for the route table.
type Server struct {
	m   Backend
	mux *http.ServeMux
}

// NewServer wires the /v1 routes over the backend.
func NewServer(m Backend) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	s.mux.HandleFunc("POST /v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("GET /v1/schemes", s.handleSchemes)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	// Backends that carry a metrics registry (a metered Manager or
	// Coordinator) get GET /metrics on the same listener; unmetered
	// backends serve 404 there, exactly as before.
	if mp, ok := m.(interface{ Metrics() *obs.Registry }); ok {
		if reg := mp.Metrics(); reg != nil {
			s.mux.Handle("GET /metrics", reg.Handler())
		}
	}
	// Backends with a mutable worker fleet (memtest-coord) get the
	// membership routes; single-node backends serve 404 there.
	if mem, ok := m.(Membership); ok {
		s.mux.HandleFunc("POST /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			var ref WorkerRef
			if err := decode(w, r, &ref); err != nil {
				writeError(w, err)
				return
			}
			wh, err := mem.AddWorker(ref.URL)
			if err != nil {
				writeError(w, err)
				return
			}
			writeJSON(w, http.StatusOK, wh)
		})
		s.mux.HandleFunc("GET /v1/workers", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, mem.Workers())
		})
		s.mux.HandleFunc("DELETE /v1/workers", func(w http.ResponseWriter, r *http.Request) {
			u := r.URL.Query().Get("url")
			if u == "" {
				writeError(w, fmt.Errorf("%w: DELETE /v1/workers needs ?url=", ErrBadWorkerURL))
				return
			}
			if err := mem.RemoveWorker(u); err != nil {
				writeError(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON renders one JSON body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client is gone if this fails
}

// writeError maps a manager/library error onto its HTTP status and the
// JSON error envelope.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDiagnoseBusy):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrUnknownJob), errors.Is(err, ErrUnknownWorker):
		status = http.StatusNotFound
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrStorage), errors.Is(err, ErrDiagnose):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, ErrorBody{Error: err.Error()})
}

// decode parses a bounded JSON request body.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.m.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// streamWriters recycles the buffers handleResults writes a stream
// through, so a follower's lines leave in one chunk per wake.
var streamWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// handleResults streams a job's results as NDJSON: every line is one
// memtest.DeviceResult exactly as json.Marshal renders it; a failed or
// cancelled job terminates the stream with one {"error": "..."} line.
// Lines are buffered and flushed to the reader once per follower
// wake, after the lines that wake read, so a caught-up reader gets
// each line as it completes and a reader that is behind gets them in
// batches. ?offset=N skips the first N lines of the spool — the
// pagination hook for resuming an interrupted read or fetching the
// tail of a huge finished job. With ?cancel_on_disconnect=true a
// reader that goes away mid-stream cancels the job itself — the
// tail-and-own mode the one-client-per-job workflow uses.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Resolve before committing to a 200: unknown jobs are a 404.
	if _, err := s.m.Status(id); err != nil {
		writeError(w, err)
		return
	}
	cancelOnDisconnect, _ := strconv.ParseBool(r.URL.Query().Get("cancel_on_disconnect"))
	offset := 0
	if v := r.URL.Query().Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("service: offset must be a non-negative integer, got %q", v))
			return
		}
		offset = n
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// Send the headers now: a reader of a queued or slow job would
	// otherwise wait for them until its first line is flushed. A reader
	// already gone fails the first flush below too.
	rc := http.NewResponseController(w)
	rc.Flush() //nolint:errcheck
	bw := streamWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(nil)
		streamWriters.Put(bw)
	}()
	emit := func(line []byte) error {
		bw.Write(line) //nolint:errcheck // a failed write sticks to bw and surfaces at WriteByte
		return bw.WriteByte('\n')
	}
	// flush drains the buffer to the connection. A write that fails
	// here means the reader went away, like a failed emit.
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	}
	jobErr, err := s.m.FollowBatches(r.Context(), id, offset, emit, flush)
	if err != nil {
		if errors.Is(err, ErrStorage) {
			// The spool failed under a still-connected reader (disk
			// fault, or the job was evicted mid-stream). Terminate
			// explicitly, after the lines already emitted — a silently
			// truncated stream would be indistinguishable from a
			// complete one.
			emit(mustMarshal(ErrorBody{Error: err.Error()})) //nolint:errcheck
			flush()                                          //nolint:errcheck
			return
		}
		// The reader disconnected (or a write to it failed) before the
		// job finished.
		if cancelOnDisconnect {
			s.m.Cancel(id) //nolint:errcheck // job may have finished racing the disconnect
		}
		return
	}
	if jobErr != "" {
		emit(mustMarshal(ErrorBody{Error: jobErr})) //nolint:errcheck
	}
	flush() //nolint:errcheck // the stream is complete; a reader gone now has nothing left to miss
}

// handleDiagnose runs one device synchronously via Backend.Diagnose
// and returns the full memtest.Result; see Manager.Diagnose for the
// capacity and cancellation contract. Run failures map to 500, busy
// slots to 429, bad requests to 400.
func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decode(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	res, err := s.m.Diagnose(r.Context(), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case r.Context().Err() != nil:
		// Client gone; nobody is listening.
	default:
		writeError(w, err)
	}
}

func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, memtest.Schemes())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Health())
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
