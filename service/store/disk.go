package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File naming inside a Disk data directory: one spool and one manifest
// per job, flat, keyed by the job ID, plus one advisory lock file.
const (
	spoolSuffix    = ".ndjson"
	manifestSuffix = ".json"
	lockName       = ".lock"
)

// Disk is the durable Store: each job spools to <dir>/<id>.ndjson with
// its manifest at <dir>/<id>.json. Reopening the same directory
// recovers every job; torn trailing bytes from a crash mid-append are
// truncated away so replay only ever sees whole lines. An advisory
// lock on <dir>/.lock (where the platform supports it) makes NewDisk
// fail fast if another live process owns the directory — two writers
// appending and truncating the same spools would corrupt them.
type Disk struct {
	dir  string
	lock *os.File

	mu     sync.Mutex
	open   map[string]*diskJob // handle cache: one diskJob per ID
	closed bool
}

// NewDisk opens (creating if needed) the data directory, takes its
// advisory lock and returns the store over it. Existing spools are
// indexed lazily, on first read — startup cost is O(jobs), not
// O(spooled bytes).
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: data dir lock: %w", err)
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, err
	}
	return &Disk{dir: dir, lock: lock, open: map[string]*diskJob{}}, nil
}

// validID keeps job IDs usable as flat file names.
func validID(id string) error {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, "/\\") {
		return fmt.Errorf("%w: %q", ErrBadID, id)
	}
	return nil
}

func (s *Disk) spoolPath(id string) string    { return filepath.Join(s.dir, id+spoolSuffix) }
func (s *Disk) manifestPath(id string) string { return filepath.Join(s.dir, id+manifestSuffix) }

// Create implements Store.
func (s *Disk) Create(id string, manifest []byte) (Job, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if _, ok := s.open[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrJobExists, id)
	}
	w, err := os.OpenFile(s.spoolPath(id), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("%w: %q", ErrJobExists, id)
		}
		return nil, fmt.Errorf("store: create spool: %w", err)
	}
	r, err := os.Open(s.spoolPath(id))
	if err == nil {
		err = writeManifestFile(s.manifestPath(id), manifest)
	}
	if err != nil {
		// Leave nothing behind: an orphan spool would make every
		// retry of this ID fail with ErrJobExists forever.
		w.Close()
		if r != nil {
			r.Close()
		}
		os.Remove(s.spoolPath(id))
		os.Remove(s.manifestPath(id))
		return nil, fmt.Errorf("store: create job: %w", err)
	}
	j := &diskJob{
		spoolPath:    s.spoolPath(id),
		manifestPath: s.manifestPath(id),
		w:            w, bw: bufio.NewWriterSize(w, spoolBufSize), r: r,
		sparse:   []int64{0},
		indexed:  true,
		manifest: append([]byte(nil), manifest...),
	}
	s.open[id] = j
	return j, nil
}

// Open implements Store. Handles are cheap: the spool is not indexed
// (or its files opened) until the first append or read needs it.
func (s *Disk) Open(id string) (Job, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	if j, ok := s.open[id]; ok {
		return j, nil
	}
	if _, err := os.Stat(s.manifestPath(id)); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	j := &diskJob{
		spoolPath:    s.spoolPath(id),
		manifestPath: s.manifestPath(id),
	}
	s.open[id] = j
	return j, nil
}

// indexSpool scans a spool file and returns its sparse line index:
// the start offset of every indexStride-th line, plus the whole-line
// count and the end of the indexed bytes. Trailing bytes with no
// newline terminator — a crash mid-append — are truncated off the file
// so later appends cannot fuse with them.
func indexSpool(path string) (sparse []int64, lines int, end int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			// Manifest without spool (e.g. a partially deleted job):
			// treat as an empty spool; the writer recreates the file.
			return []int64{0}, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("store: index spool: %w", err)
	}
	defer f.Close()
	sparse = []int64{0}
	var pos int64
	br := bufio.NewReaderSize(f, 1<<16)
	for {
		chunk, err := br.ReadSlice('\n')
		pos += int64(len(chunk))
		switch {
		case err == nil:
			lines++
			end = pos
			if lines%indexStride == 0 {
				sparse = append(sparse, end)
			}
		case err == io.EOF || err == bufio.ErrBufferFull:
			// ErrBufferFull: mid-line, keep scanning the same line.
			if err == io.EOF {
				if torn := pos - end; torn > 0 {
					if err := os.Truncate(path, end); err != nil {
						return nil, 0, 0, fmt.Errorf("store: truncate torn line: %w", err)
					}
				}
				return sparse, lines, end, nil
			}
		default:
			return nil, 0, 0, fmt.Errorf("store: index spool: %w", err)
		}
	}
}

// Jobs implements Store: every ID with a manifest in the directory.
func (s *Disk) Jobs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list jobs: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), manifestSuffix); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Remove implements Store.
func (s *Disk) Remove(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	s.mu.Lock()
	j, ok := s.open[id]
	delete(s.open, id)
	s.mu.Unlock()
	if j != nil {
		j.close(false)
	}
	if _, err := os.Stat(s.manifestPath(id)); err != nil && !ok {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	// Manifest last: a crash between the two unlinks leaves a
	// manifest-less spool, which Jobs() no longer lists.
	if err := os.Remove(s.spoolPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove spool: %w", err)
	}
	if err := os.Remove(s.manifestPath(id)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: remove manifest: %w", err)
	}
	return nil
}

// Close implements Store: it closes every open spool handle and
// releases the data-directory lock, after which another process may
// take over the directory.
func (s *Disk) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	jobs := s.open
	s.open = map[string]*diskJob{}
	s.mu.Unlock()
	for _, j := range jobs {
		j.close(true)
	}
	s.lock.Close() // releases the advisory lock
	return nil
}

// Durable reports true: the data directory survives restarts, so a
// manager over it can crash-resume.
func (s *Disk) Durable() bool { return true }

// errSpoolClosed reports an operation on a job whose files were
// released by Remove (eviction) or store Close.
var errSpoolClosed = fmt.Errorf("store: spool closed")

// spoolBufSize sizes each spool's append buffer: result lines batch in
// memory and reach the file in one write syscall per buffer-full (or
// per Flush/Read boundary) instead of one syscall per device result.
const spoolBufSize = 1 << 16

// indexStride is the sparse line-index granularity: one remembered
// offset per indexStride lines. A Read locates its first line from the
// nearest mark at or below it and scans forward over at most
// indexStride-1 lines; the sequential-reader cache makes the common
// tail-follower pattern an exact hit with no scan at all. 8 bytes per
// 512 lines keeps a multi-billion-line spool's index in megabytes
// instead of the gigabytes the old 8-bytes-per-line index cost.
const indexStride = 512

// diskJob is one on-disk spool: a buffered append writer, a pread
// reader and a sparse in-memory line index (8 bytes per indexStride
// lines — the bounded footprint that replaces the old 8-bytes-per-line
// full index). The index and file handles materialize lazily on first
// use, so recovering a directory of finished jobs costs nothing per
// job until somebody actually reads one. The index counts appended
// (possibly still-buffered) lines; Read flushes before its pread, so
// readers never see a line the index promises but the file lacks.
type diskJob struct {
	spoolPath    string
	manifestPath string

	mu      sync.Mutex
	w       *os.File
	bw      *bufio.Writer
	r       *os.File
	indexed bool
	// sparse[k] is the byte offset of line k*indexStride's start;
	// lines is the whole-line count and end the spooled byte size
	// (line data plus newline terminators).
	sparse []int64
	lines  int
	end    int64
	// cacheLine/cacheOff remember the exact start offset of the line
	// one past the latest finished Read — the next batch of a
	// sequential follower starts there, skipping the scan-forward.
	cacheLine int
	cacheOff  int64
	// readers counts in-flight Read calls so close(false) — eviction —
	// never yanks the read handle out from under an active pread; the
	// last reader out closes it.
	readers  int
	closed   bool
	manifest []byte // cache; nil until read
}

// ensure indexes the spool and opens its handles. Caller holds j.mu.
func (j *diskJob) ensure() error {
	if j.closed {
		return errSpoolClosed
	}
	if j.indexed {
		return nil
	}
	sparse, lines, end, err := indexSpool(j.spoolPath)
	if err != nil {
		return err
	}
	w, err := os.OpenFile(j.spoolPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen spool: %w", err)
	}
	r, err := os.Open(j.spoolPath)
	if err != nil {
		w.Close()
		return fmt.Errorf("store: reopen spool: %w", err)
	}
	j.w, j.bw, j.r, j.indexed = w, bufio.NewWriterSize(w, spoolBufSize), r, true
	j.sparse, j.lines, j.end = sparse, lines, end
	j.cacheLine, j.cacheOff = 0, 0
	return nil
}

// flushLocked drains buffered appends to the file. Caller holds j.mu.
func (j *diskJob) flushLocked() error {
	if j.bw == nil || j.bw.Buffered() == 0 {
		return nil
	}
	if err := j.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush spool: %w", err)
	}
	return nil
}

// Flush implements Job.
func (j *diskJob) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errSpoolClosed
	}
	return j.flushLocked()
}

// close releases the job's files. Eviction (hard=false) lets an
// in-flight reader finish its current batch — the last one out closes
// the read handle; store shutdown (hard=true) closes everything now.
func (j *diskJob) close(hard bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if j.w != nil {
		j.flushLocked() //nolint:errcheck // closing path: the file write below surfaces real I/O errors
		j.w.Close()
		j.w, j.bw = nil, nil
	}
	if j.r != nil && (hard || j.readers == 0) {
		j.r.Close()
		j.r = nil
	}
}

func (j *diskJob) Append(line []byte) error {
	if bytes.IndexByte(line, '\n') >= 0 {
		return ErrBadLine
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ensure(); err != nil {
		return err
	}
	// The line lands in the append buffer (copied, so the caller may
	// reuse its encode buffer) and reaches the file when the buffer
	// fills or a reader/Flush forces it. A crash can tear or drop the
	// buffered tail — the reopen scan truncates to whole lines and
	// recovery reports the retained prefix — but flushed lines are
	// never interleaved or reordered.
	if _, err := j.bw.Write(line); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	if err := j.bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	j.lines++
	j.end += int64(len(line)) + 1
	if j.lines%indexStride == 0 {
		j.sparse = append(j.sparse, j.end)
	}
	return nil
}

func (j *diskJob) Lines() (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ensure(); err != nil {
		return 0, err
	}
	return j.lines, nil
}

// Size avoids triggering the index: an unindexed spool is stat'd, so
// retention accounting over a freshly recovered directory stays
// O(jobs).
func (j *diskJob) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.indexed {
		return j.end
	}
	fi, err := os.Stat(j.spoolPath)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (j *diskJob) Read(from, to int, emit func([]byte) error) error {
	j.mu.Lock()
	if err := j.ensure(); err != nil {
		j.mu.Unlock()
		return err
	}
	// Make every indexed line visible to the pread below.
	if err := j.flushLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	if from < 0 || to < from || to > j.lines {
		j.mu.Unlock()
		return fmt.Errorf("%w: [%d, %d) of %d", ErrBadRange, from, to, j.lines)
	}
	if from == to {
		j.mu.Unlock()
		return nil
	}
	// Locate the nearest known line start at or below `from`: the
	// sequential-reader cache when it covers us (a tail follower's next
	// batch starts exactly where its last one ended — no scan at all),
	// else the sparse index mark, at most indexStride-1 lines short.
	startLine, start := (from/indexStride)*indexStride, j.sparse[from/indexStride]
	if j.cacheLine >= startLine && j.cacheLine <= from {
		startLine, start = j.cacheLine, j.cacheOff
	}
	end, r := j.end, j.r
	j.readers++
	j.mu.Unlock()
	defer func() {
		j.mu.Lock()
		j.readers--
		if j.closed && j.readers == 0 && j.r != nil {
			j.r.Close()
			j.r = nil
		}
		j.mu.Unlock()
	}()
	// Bytes below `end` are immutable, so the read happens outside the
	// lock: pread (ReadAt via SectionReader) never touches the
	// appender's file offset, and an unlinked-but-open spool (a job
	// evicted during this batch) still reads fine.
	// The reader is pooled and each line is handed out of its buffer
	// (emitted slices are only valid during emit): a tail follower reads
	// in small batches, and a fresh 64 KiB reader plus a copy of every
	// line per batch was the spool's main allocation.
	sr := readerPool.Get().(*spoolReader)
	sr.win = *io.NewSectionReader(r, start, end-start)
	br := sr.br
	br.Reset(&sr.win)
	defer func() {
		br.Reset(nil)
		sr.win = io.SectionReader{}
		readerPool.Put(sr)
	}()
	pos := start
	for i := startLine; i < from; i++ {
		n, err := discardLine(br)
		if err != nil {
			return fmt.Errorf("store: seek line %d: %w", i, err)
		}
		pos += n
	}
	var long []byte // a line longer than br's buffer, reassembled
	for i := from; i < to; i++ {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			line = long
		}
		if err != nil {
			return fmt.Errorf("store: read line %d: %w", i, err)
		}
		pos += int64(len(line))
		if err := emit(line[:len(line)-1]); err != nil {
			return err
		}
	}
	// Remember where line `to` starts so the follower's next batch
	// resumes without a scan. Monotonic: racing batches keep the
	// furthest mark (any cached pair is valid — lines are immutable).
	j.mu.Lock()
	if to > j.cacheLine {
		j.cacheLine, j.cacheOff = to, pos
	}
	j.mu.Unlock()
	return nil
}

// spoolReader is one batch's read cursor: a 64 KiB buffer over a
// window of the spool file. Both halves are reused, so a follower's
// batch allocates nothing.
type spoolReader struct {
	br  *bufio.Reader
	win io.SectionReader
}

// readerPool recycles the spool readers Read draws per batch.
var readerPool = sync.Pool{New: func() any { return &spoolReader{br: bufio.NewReaderSize(nil, 1<<16)} }}

// discardLine consumes one whole line (however long) from br and
// reports how many bytes it spanned, newline included.
func discardLine(br *bufio.Reader) (int64, error) {
	var n int64
	for {
		chunk, err := br.ReadSlice('\n')
		n += int64(len(chunk))
		if err == bufio.ErrBufferFull {
			continue // mid-line; keep consuming the same line
		}
		return n, err
	}
}

// writeManifestFile replaces a manifest via write-to-temp + rename, so
// a crash mid-write can never leave a half manifest.
func writeManifestFile(path string, m []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, m, 0o644); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: write manifest: %w", err)
	}
	return nil
}

func (j *diskJob) WriteManifest(m []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		// An evicted or shut-down job must not resurrect its manifest
		// (a post-takeover write would clobber the new owner's state).
		return errSpoolClosed
	}
	// Results-before-status: a manifest claiming N completed results
	// must never hit the disk while some of those results are still
	// buffered, or a crash right after would recover a terminal job
	// with a short spool.
	if err := j.flushLocked(); err != nil {
		return err
	}
	if err := writeManifestFile(j.manifestPath, m); err != nil {
		return err
	}
	j.manifest = append([]byte(nil), m...)
	return nil
}

func (j *diskJob) Manifest() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.manifest == nil {
		m, err := os.ReadFile(j.manifestPath)
		if err != nil {
			return nil, fmt.Errorf("store: read manifest: %w", err)
		}
		j.manifest = m
	}
	return append([]byte(nil), j.manifest...), nil
}
