// Command memtestd serves fleet diagnosis over HTTP: JSON job
// submissions in, NDJSON per-device results streaming out, backed by
// the memtest library's cancellable fleet sessions. See the
// repro/service package documentation for the endpoint table and
// docs/OPERATIONS.md for the full flag and endpoint reference.
//
// Usage:
//
//	memtestd [-addr :8347] [-jobs 2] [-queue 16] [-workers 0] [-drain 15s]
//	         [-data-dir DIR] [-retain-jobs N] [-retain-bytes N]
//	         [-log-level info] [-log-format text] [-debug-addr ADDR]
//
// Without -data-dir, jobs live in process memory and die with the
// process. With it, every job's results spool to disk as they are
// produced and the daemon recovers the directory on startup: finished
// jobs re-stream byte-identically, and jobs interrupted by the
// previous crash resume — only the missing device suffix is re-run,
// appended to the spooled prefix, so the final stream is byte-
// identical to a crash-free run. A job that cannot resume (its spool's
// line count is unreadable, or an older release wrote it) recovers as
// failed, its partial results still streamable.
//
// The daemon always serves Prometheus metrics at GET /metrics on the
// main listener. -debug-addr additionally opens a second listener —
// bind it to loopback — with net/http/pprof under /debug/pprof/ and a
// /metrics mirror. Logs are structured (log/slog) on stderr;
// -log-level and -log-format tune them.
//
// SIGINT/SIGTERM triggers a graceful shutdown: new submissions are
// refused, running jobs are cancelled (the engines abort within one
// poll interval), open result streams terminate with an error line,
// and the listener drains within -drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/service"
	"repro/service/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		jobs        = flag.Int("jobs", 2, "maximum concurrently running jobs (scheduler workers)")
		queue       = flag.Int("queue", 16, "queued-job backlog before submissions get HTTP 429")
		workers     = flag.Int("workers", 0, "fleet-worker pool lent dynamically to running jobs (0 = GOMAXPROCS)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful shutdown drain timeout")
		dataDir     = flag.String("data-dir", "", "spool job manifests and results here; empty = in-memory (jobs die with the process)")
		retainJobs  = flag.Int("retain-jobs", 0, "finished jobs kept before the oldest are evicted (0 = unlimited)")
		retainBytes = flag.Int64("retain-bytes", 0, "total spooled result bytes kept before the oldest finished jobs are evicted (0 = unlimited)")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		logFormat   = flag.String("log-format", "text", "log encoding: text (key=value) or json")
		debugAddr   = flag.String("debug-addr", "", "optional second listener with /debug/pprof/ and /metrics; bind to loopback")
	)
	flag.Parse()

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memtestd: %v\n", err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		log.Error(msg, "error", err)
		os.Exit(1)
	}

	reg := obs.NewRegistry()
	cfg := service.Config{
		Jobs: *jobs, Queue: *queue, FleetWorkers: *workers,
		RetainJobs: *retainJobs, RetainBytes: *retainBytes,
		Metrics: reg,
		Logger:  log,
	}
	if *dataDir != "" {
		st, err := store.NewDisk(*dataDir)
		if err != nil {
			fatal("opening data dir", err)
		}
		cfg.Store = st
	}
	m, err := service.NewManager(cfg)
	if err != nil {
		fatal("starting manager", err)
	}
	if *dataDir != "" {
		h := m.Health()
		log.Info("data dir recovered", "dir", *dataDir, "jobs_recovered", h.JobsRecovered, "jobs_resuming", h.JobsResumed)
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: service.NewServer(m),
		// Bound header reads so stalled clients cannot pin connections
		// forever; no blanket WriteTimeout — result streams are
		// long-lived by design.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if *debugAddr != "" {
		dbg := debugServer(*debugAddr, reg)
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "error", err)
			}
		}()
		defer dbg.Close()
		log.Info("debug listener on", "addr", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Info("memtestd listening", "addr", *addr, "jobs", *jobs, "queue", *queue, "version", obs.Version())

	select {
	case err := <-errCh:
		m.Close()
		fatal("listener failed", err)
	case <-ctx.Done():
	}
	log.Info("signal received, draining", "timeout", drain.String())
	// Cancel jobs first so open result streams terminate and the
	// listener can actually drain, then close the listener.
	m.Close()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Warn("drain incomplete", "error", err)
	}
	log.Info("stopped")
}

// debugServer builds the opt-in debug listener: net/http/pprof (which
// only registers on http.DefaultServeMux) mounted explicitly on a
// private mux, plus a /metrics mirror so one loopback port carries
// both.
func debugServer(addr string, reg *obs.Registry) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}
