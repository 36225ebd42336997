// Package faultstore decorates a store.Store with deterministic,
// scriptable failures, so every service degradation path — an append
// failing mid-job, a torn/buffered tail lost to a crash, a manifest
// write as the crash point, a read error mid-replay, a spool index
// failing at recovery time, a second crash landing mid-resume — is
// exercised by ordinary `go test -race` instead of only by
// process-level kill-9 smoke tests.
//
// Wrap any Store and arm faults before (or between) operations:
//
//	fs := faultstore.Wrap(store.NewMem())
//	fs.FailAppend(3, errors.New("disk full"))   // 3rd Append fails
//	fs.CrashAfterAppends(2)                     // "process dies" after 2 durable lines
//
// Faults are keyed by per-store call counters (the Nth Append, the
// Nth WriteManifest, the Nth Read across all jobs of this store), so
// a single-writer test — the service's one-appender-per-job contract
// — sees fully deterministic firing. Each armed fault fires exactly
// once; CrashAfterAppends is persistent (a dead process stays dead).
package faultstore

import (
	"errors"
	"sync"

	"repro/service/store"
)

// ErrInjected is the error every armed fault returns unless the test
// supplied its own.
var ErrInjected = errors.New("faultstore: injected fault")

// readFault fails the Nth Read call after letting `after` lines emit.
type readFault struct {
	after int
	err   error
}

// Store wraps an inner store.Store; see the package documentation.
type Store struct {
	inner store.Store

	mu        sync.Mutex
	appends   int // calls so far, across all jobs
	manifests int
	reads     int
	lines     int
	// armed one-shot faults, keyed by 1-based call number.
	failAppend   map[int]error
	failManifest map[int]error
	failRead     map[int]readFault
	failLines    map[int]error
	// crashAfter, once >= 0, simulates process death with exactly that
	// many durable appends: later appends are dropped (the torn or
	// still-buffered tail a real crash loses) and every later append,
	// flush and manifest write fails with ErrInjected — the manifest on
	// "disk" stays stale, exactly what a recovering manager must cope
	// with.
	crashAfter int
}

// Wrap returns a fault-injecting decorator over inner with no faults
// armed; until one is, every operation passes straight through.
func Wrap(inner store.Store) *Store {
	return &Store{
		inner:        inner,
		failAppend:   map[int]error{},
		failManifest: map[int]error{},
		failRead:     map[int]readFault{},
		failLines:    map[int]error{},
		crashAfter:   -1,
	}
}

// FailAppend arms the nth future Append (1-based, counted across all
// jobs) to fail with err (ErrInjected when nil). The line does not
// reach the inner store.
func (s *Store) FailAppend(n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAppend[s.appends+n] = orInjected(err)
}

// FailManifest arms the nth future WriteManifest to fail with err
// (ErrInjected when nil); the manifest keeps its previous content.
func (s *Store) FailManifest(n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failManifest[s.manifests+n] = orInjected(err)
}

// FailRead arms the nth future Read call to emit `after` lines and
// then fail with err (ErrInjected when nil) — the mid-replay read
// error a disk fault under a live stream produces.
func (s *Store) FailRead(n, after int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failRead[s.reads+n] = readFault{after: after, err: orInjected(err)}
}

// FailLines arms the nth future Lines call to fail with err
// (ErrInjected when nil) — the transient index/IO failure a recovering
// manager must treat as "spooled count unknown", never as zero.
func (s *Store) FailLines(n int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failLines[s.lines+n] = orInjected(err)
}

// CrashAfterAppends simulates the process dying once n more appends
// (counted from now, across all jobs) have reached the inner store:
// every later Append is lost and fails with ErrInjected, and so does
// every later Flush and WriteManifest — the stale-manifest,
// truncated-spool state a kill-9 leaves behind, produced
// deterministically. The manager owning this store will observe its
// job fail with a storage error; the *next* manager, recovering the
// inner store, sees exactly a crash.
func (s *Store) CrashAfterAppends(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashAfter = s.appends + n
}

func orInjected(err error) error {
	if err == nil {
		return ErrInjected
	}
	return err
}

// Create implements store.Store.
func (s *Store) Create(id string, manifest []byte) (store.Job, error) {
	j, err := s.inner.Create(id, manifest)
	if err != nil {
		return nil, err
	}
	return &job{s: s, inner: j}, nil
}

// Open implements store.Store.
func (s *Store) Open(id string) (store.Job, error) {
	j, err := s.inner.Open(id)
	if err != nil {
		return nil, err
	}
	return &job{s: s, inner: j}, nil
}

// Jobs implements store.Store.
func (s *Store) Jobs() ([]string, error) { return s.inner.Jobs() }

// Remove implements store.Store.
func (s *Store) Remove(id string) error { return s.inner.Remove(id) }

// Close implements store.Store. Close always reaches the inner store:
// tests must be able to release a "crashed" store's resources (file
// locks, handles) to hand the directory to the next manager.
func (s *Store) Close() error { return s.inner.Close() }

// Durable forwards the inner store's durability so a faulty disk store
// still reports Durable in /v1/healthz.
func (s *Store) Durable() bool { return s.inner.Durable() }

// job decorates one spool with the store's armed faults.
type job struct {
	s     *Store
	inner store.Job
}

func (j *job) Append(line []byte) error {
	j.s.mu.Lock()
	j.s.appends++
	if err, ok := j.s.failAppend[j.s.appends]; ok {
		delete(j.s.failAppend, j.s.appends)
		j.s.mu.Unlock()
		return err
	}
	if j.s.crashAfter >= 0 && j.s.appends > j.s.crashAfter {
		j.s.mu.Unlock()
		return ErrInjected
	}
	j.s.mu.Unlock()
	return j.inner.Append(line)
}

func (j *job) Flush() error {
	if j.s.crashed() {
		return ErrInjected
	}
	return j.inner.Flush()
}

func (j *job) WriteManifest(m []byte) error {
	j.s.mu.Lock()
	j.s.manifests++
	if err, ok := j.s.failManifest[j.s.manifests]; ok {
		delete(j.s.failManifest, j.s.manifests)
		j.s.mu.Unlock()
		return err
	}
	crashed := j.s.crashAfter >= 0 && j.s.appends >= j.s.crashAfter
	j.s.mu.Unlock()
	if crashed {
		return ErrInjected
	}
	return j.inner.WriteManifest(m)
}

func (j *job) Read(from, to int, emit func(line []byte) error) error {
	j.s.mu.Lock()
	j.s.reads++
	f, armed := j.s.failRead[j.s.reads]
	if armed {
		delete(j.s.failRead, j.s.reads)
	}
	j.s.mu.Unlock()
	if !armed {
		return j.inner.Read(from, to, emit)
	}
	emitted := 0
	err := j.inner.Read(from, to, func(line []byte) error {
		if emitted >= f.after {
			return f.err
		}
		emitted++
		return emit(line)
	})
	if err != nil {
		return err
	}
	// The armed range ended before `after` lines — the fault still
	// fires so the test's script stays deterministic.
	return f.err
}

func (j *job) Lines() (int, error) {
	j.s.mu.Lock()
	j.s.lines++
	if err, ok := j.s.failLines[j.s.lines]; ok {
		delete(j.s.failLines, j.s.lines)
		j.s.mu.Unlock()
		return 0, err
	}
	j.s.mu.Unlock()
	return j.inner.Lines()
}

func (j *job) Size() int64               { return j.inner.Size() }
func (j *job) Manifest() ([]byte, error) { return j.inner.Manifest() }

// crashed reports whether the simulated process death already struck.
func (s *Store) crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashAfter >= 0 && s.appends >= s.crashAfter
}
