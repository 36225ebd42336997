// Package store persists memtestd job state: one append-only NDJSON
// result spool plus one small JSON manifest per job.
//
// The manager (repro/service) appends each device's marshalled result
// to the job's spool as it is produced; readers — including readers
// that connect long after the job finished, or after a server restart
// — stream the spool back byte-identically. The manifest is an opaque
// blob to the store (the service keeps its JobStatus there); the store
// only guarantees it survives restarts and that WriteManifest replaces
// it atomically.
//
// Two implementations:
//
//   - Mem (NewMem) keeps everything in process memory — the default
//     when memtestd runs without -data-dir, and the store behind unit
//     tests. Jobs die with the process.
//   - Disk (NewDisk) spools to a data directory: <id>.ndjson for the
//     result lines, <id>.json for the manifest. Reopening the
//     directory recovers every job; a torn trailing line (a crash
//     mid-append) is truncated away so the spool only ever replays
//     whole lines. Spools index lazily on first use, and an advisory
//     flock on the directory (where the platform has one) keeps a
//     still-live previous process from corrupting a taken-over
//     directory.
//
// Concurrency contract: one goroutine appends to a given job; any
// number of goroutines may call Read, Lines, Size and Manifest
// concurrently with the appender. Lines already appended are
// immutable.
package store

import "errors"

// Typed store errors.
var (
	// ErrUnknownJob: no spool with that ID.
	ErrUnknownJob = errors.New("store: unknown job")
	// ErrJobExists: Create was called with an ID already in the store.
	ErrJobExists = errors.New("store: job already exists")
	// ErrBadID: the ID is empty or not usable as a spool name.
	ErrBadID = errors.New("store: bad job id")
	// ErrBadRange: Read was called with an out-of-bounds line range.
	ErrBadRange = errors.New("store: bad line range")
	// ErrBadLine: Append was called with a line containing a newline.
	ErrBadLine = errors.New("store: line contains newline")
)

// Job is one job's durable state: an append-only line spool and a
// manifest blob.
type Job interface {
	// Append spools one result line (without trailing newline). The
	// store copies the line before returning, so callers may reuse the
	// buffer — the manager encodes every result into one pooled buffer.
	// Appends may be buffered: a line is guaranteed on stable storage
	// only after Flush (Read flushes implicitly, so in-process readers
	// always see every appended line; a crash may lose a buffered
	// tail, which recovery already treats as an interrupted suffix).
	Append(line []byte) error
	// Flush forces buffered appends to the backing medium — the
	// explicit result-boundary hook the manager calls when a job
	// reaches a terminal state.
	Flush() error
	// Lines reports how many whole lines the spool holds. It fails
	// when the spool cannot be indexed (e.g. an I/O error reading the
	// backing file) — callers deciding how much of a job survived a
	// crash must treat that as "unknown", never as zero.
	Lines() (int, error)
	// Size reports the spooled byte count (lines plus their newline
	// terminators).
	Size() int64
	// Read emits lines [from, to) in order, each without its trailing
	// newline. It fails with ErrBadRange when the range is out of
	// bounds, and aborts with emit's error if emit fails. The emitted
	// slice is only valid during the call.
	Read(from, to int, emit func(line []byte) error) error
	// WriteManifest atomically replaces the job's manifest blob.
	// Implementations with buffered appends must flush the spool
	// first: a manifest describing N completed results may never
	// reach stable storage ahead of those results, or a crash would
	// recover a terminal job with a short spool.
	WriteManifest(m []byte) error
	// Manifest returns the current manifest blob.
	Manifest() ([]byte, error)
}

// Store is a collection of job spools keyed by ID.
type Store interface {
	// Create allocates a new empty spool with the given manifest. It
	// fails with ErrJobExists for duplicate IDs.
	Create(id string, manifest []byte) (Job, error)
	// Open returns the spool for an existing job (including jobs
	// recovered from a previous process).
	Open(id string) (Job, error)
	// Jobs lists every stored job ID in ascending ID order. The
	// service's zero-padded sequence IDs make that creation order.
	Jobs() ([]string, error)
	// Remove deletes a job's spool and manifest; new Opens fail with
	// ErrUnknownJob. A reader racing the removal finishes its
	// in-flight Read (implementations never corrupt or truncate a
	// batch mid-read) but later Reads may fail with a closed-spool
	// error — the caller is expected to surface that explicitly
	// rather than end the stream silently.
	Remove(id string) error
	// Close releases the store's resources. Job handles must not be
	// used afterwards.
	Close() error
	// Durable reports whether spools survive process restarts — the
	// capability /v1/healthz reports as "durable".
	Durable() bool
}
