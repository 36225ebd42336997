package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/service/store"
)

// sparseLines builds a deterministic corpus wide enough to cross
// several index-stride boundaries (the stride is 512), with one
// monster line longer than the 64 KiB read buffer so the scan-forward
// path has to consume a line in multiple buffer fills.
func sparseLines(n int) []string {
	lines := make([]string, n)
	for i := range n {
		lines[i] = fmt.Sprintf("line-%05d-%s", i, strings.Repeat("x", i%23))
	}
	if n > 520 {
		lines[520] = "monster-" + strings.Repeat("y", 70*1024)
	}
	return lines
}

func appendAll(t *testing.T, j store.Job, lines []string) {
	t.Helper()
	for _, l := range lines {
		if err := j.Append([]byte(l)); err != nil {
			t.Fatal(err)
		}
	}
}

// checkWindow reads [from, to) and compares against the corpus.
func checkWindow(t *testing.T, j store.Job, lines []string, from, to int) {
	t.Helper()
	i := from
	if err := j.Read(from, to, func(line []byte) error {
		if string(line) != lines[i] {
			t.Fatalf("line %d = %.40q, want %.40q", i, line, lines[i])
		}
		i++
		return nil
	}); err != nil {
		t.Fatalf("Read(%d, %d): %v", from, to, err)
	}
	if i != to {
		t.Fatalf("Read(%d, %d) emitted %d lines", from, to, i-from)
	}
}

// TestDiskSparseIndexWindows drives the sparse line index across
// stride boundaries: windows starting exactly on a mark, just after
// one, deep between marks (maximum scan-forward), spanning several
// marks, and out of order (defeating the sequential-reader cache) all
// replay the exact corpus.
func TestDiskSparseIndexWindows(t *testing.T) {
	const n = 2*512 + 77
	lines := sparseLines(n)
	s, err := store.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Create("job-000001", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, lines)
	if got := mustLines(t, j); got != n {
		t.Fatalf("Lines = %d, want %d", got, n)
	}
	for _, w := range [][2]int{
		{0, n},           // everything
		{512, 520},       // starts exactly on a mark
		{513, 600},       // one past a mark
		{511, 513},       // crosses a mark
		{1023, 1025},     // deepest scan-forward, then crosses
		{520, 521},       // the monster line alone
		{521, 530},       // scan-forward across the monster line
		{n - 1, n},       // last line, deep between marks
		{700, 700},       // empty window
		{100, 90 + 1000}, // spans two marks
	} {
		checkWindow(t, j, lines, w[0], w[1])
	}
	// Out of order: jump backwards (cache useless), then forwards.
	checkWindow(t, j, lines, 900, 910)
	checkWindow(t, j, lines, 10, 20)
	checkWindow(t, j, lines, 1030, n)
}

// TestDiskSparseIndexReopen pins re-indexing: a fresh store over the
// same directory rebuilds the sparse index by scanning the file,
// truncates a torn tail that lands hundreds of lines past the last
// mark, and keeps serving every window and seamless appends.
func TestDiskSparseIndexReopen(t *testing.T) {
	const n = 512 + 300
	dir := t.TempDir()
	lines := sparseLines(n)
	s1, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s1.Create("job-000001", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j1, lines)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn tail written directly to the file, as a crash mid-append
	// would leave it.
	f, err := os.OpenFile(filepath.Join(dir, "job-000001.ndjson"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("torn-without-newlin"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2, err := s2.Open("job-000001")
	if err != nil {
		t.Fatal(err)
	}
	if got := mustLines(t, j2); got != n {
		t.Fatalf("recovered Lines = %d, want %d (torn tail dropped)", got, n)
	}
	checkWindow(t, j2, lines, 0, n)
	checkWindow(t, j2, lines, 600, 700)
	if err := j2.Append([]byte("post-restart")); err != nil {
		t.Fatal(err)
	}
	checkWindow(t, j2, append(lines[:n:n], "post-restart"), n-3, n+1)
}

// TestDiskReadAllocsPerBatch pins the replay path's allocations: a
// Read batch costs a constant few allocations however many lines it
// emits — lines come straight out of a pooled reader's buffer.
func TestDiskReadAllocsPerBatch(t *testing.T) {
	lines := sparseLines(600)
	s, err := store.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, err := s.Create("job-000001", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, lines)
	emit := func([]byte) error { return nil }
	if n := testing.AllocsPerRun(20, func() {
		if err := j.Read(200, 500, emit); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Fatalf("Read of 300 lines: %v allocs, want a constant few", n)
	}
}
