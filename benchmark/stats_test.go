package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false},
		{10000, 0.999, true}, {19, 0.5, false}, {20, 0.5, true},
	} {
		if got := tailOK(c.n, c.q); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		wantPct float64
	}{{5, 50}, {99, 50}, {100, 90}, {1000, 99}, {20000, 99.9}} {
		if pct, _ := tail(seq(c.n)); pct != c.wantPct {
			t.Errorf("tail of %d samples reports p%v, want p%v", c.n, pct, c.wantPct)
		}
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 30, 20}, [3]float64{10, 20, 30}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

// fakeClock is a manual clock: sleeping jumps it forward, and the
// operation under test advances it by its service time.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func TestOpenLoopChargesStallsFromTheDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	const interval = 10 * time.Millisecond
	for _, c := range []struct {
		name    string
		service time.Duration
		late    func(i int) time.Duration
	}{
		// Faster than the schedule: every send leaves on time.
		{"keeps-up", 4 * time.Millisecond, func(int) time.Duration { return 0 }},
		// Each request takes 15 ms against a 10 ms schedule, so request
		// i leaves 5i ms late and its latency carries that wait.
		{"falls-behind", 15 * time.Millisecond, func(i int) time.Duration { return time.Duration(i) * 5 * time.Millisecond }},
	} {
		t.Run(c.name, func(t *testing.T) {
			clk := &fakeClock{now: start}
			lat, late, failed := openLoop(context.Background(), clk, start, interval, 6, 1, func(i int) bool {
				clk.advance(c.service)
				return i == 3
			})
			for i := range 6 {
				if late[i] != c.late(i) {
					t.Errorf("request %d left %v late, want %v", i, late[i], c.late(i))
				}
				if want := c.late(i) + c.service; lat[i] != want {
					t.Errorf("request %d latency %v, want %v", i, lat[i], want)
				}
				if failed[i] != (i == 3) {
					t.Errorf("request %d failed = %v", i, failed[i])
				}
			}
		})
	}
}

func TestOpenLoopIssuesEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	start := time.Now()
	_, _, failed := openLoop(context.Background(), wallClock{}, start, 0, 50, 2, func(i int) bool {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return false
	})
	for i := range 50 {
		if seen[i] != 1 || failed[i] {
			t.Fatalf("request %d issued %d times (failed %v)", i, seen[i], failed[i])
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, failed = openLoop(ctx, wallClock{}, start, 0, 3, 2, func(int) bool { return false })
	for i, f := range failed {
		if !f {
			t.Errorf("request %d after cancellation not counted failed", i)
		}
	}
}
