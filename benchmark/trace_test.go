package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kid := func(lo, hi int64) span { return span{Parent: 1, Start: lo, End: hi} }
	for _, c := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{kid(10, 20), kid(30, 50)}, 70},
		// A replay beside a stream: overlapping children count once.
		{"overlapping", []span{kid(10, 40), kid(30, 60), kid(35, 45)}, 50},
		{"touching", []span{kid(0, 50), kid(50, 100)}, 0},
		// Children reaching outside the parent are clipped to it.
		{"clipped", []span{kid(-20, 10), kid(90, 150)}, 80},
		{"outside", []span{kid(200, 300)}, 100},
		{"unsorted", []span{kid(60, 70), kid(10, 20), kid(15, 30)}, 70},
	} {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfSharesPerRoot(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 0, End: 75},
		{ID: 3, Start: 200, End: 250},
	}
	got := selfShares(spans)
	if len(got) != 2 || got[0] != 25 || got[1] != 100 {
		t.Fatalf("self shares %v, want [25 100]", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.add("x", 0, 0, "ignored", time.Now(), time.Now()); id != 0 || off.id() != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	root := tr.id()
	t0 := tr.origin.Add(time.Millisecond)
	child := tr.add("job-1", 0, root, "submit", t0, t0.Add(time.Millisecond))
	tr.add("job-1", root, 0, "job", t0, t0.Add(3*time.Millisecond))
	if child == root || child == 0 {
		t.Fatalf("child id %d collides with root %d", child, root)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0].Parent != root || got[1].ID != root || got[1].dur() != 3*time.Millisecond {
		t.Fatalf("spans read back as %+v", got)
	}
}
