package main

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// minBeyond is how many samples must lie above a tail percentile
// before it is reported: fewer, and one slow sample decides the value.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. It does not modify xs; an empty
// input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailOK reports whether the q-quantile of n samples has at least
// minBeyond samples above its rank.
func tailOK(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// tail returns the highest of p99.9, p99, p90 and p50 that tailOK
// allows, as (percentile, value). The median is returned even for
// small samples, so a non-empty input always yields a value.
func tail(xs []float64) (pct, v float64) {
	for _, q := range []float64{0.999, 0.99, 0.9} {
		if tailOK(len(xs), q) {
			return 100 * q, quantile(xs, q)
		}
	}
	return 50, median(xs)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so spreads printed here match the ones an external checker
// computes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld < 2 {
		v := math.NaN()
		if ld == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / q2
}

// clock abstracts time for the open-loop generator so tests can drive
// it deterministically.
type clock interface {
	Now() time.Time
	// SleepUntil blocks until t (returning at once if t has passed).
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time         { return time.Now() }
func (wallClock) SleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// openLoop issues n operations on a fixed schedule: operation i is due
// at start + i*interval, whether or not earlier ones have finished,
// spread over `senders` concurrent senders (the connection budget).
// Each latency is timed from the operation's due time, not from when a
// sender got to it, so a stall is charged to every operation it
// delays; late records how far behind schedule each send left. do
// reports whether operation i failed.
func openLoop(ctx context.Context, clk clock, start time.Time, interval time.Duration, n, senders int, do func(i int) bool) (latency, late []time.Duration, failed []bool) {
	latency = make([]time.Duration, n)
	late = make([]time.Duration, n)
	failed = make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					failed[i] = true
					continue
				}
				due := start.Add(time.Duration(i) * interval)
				clk.SleepUntil(due)
				late[i] = clk.Now().Sub(due)
				failed[i] = do(i)
				latency[i] = clk.Now().Sub(due)
			}
		}()
	}
	wg.Wait()
	return latency, late, failed
}
