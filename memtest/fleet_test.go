package memtest

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/sram"
)

// collectFleet drains a RunFleet stream into JSON lines for comparison,
// checking it yields exactly devices [0, devices) in order.
func collectFleet(t *testing.T, s *Session, devices int) []string {
	t.Helper()
	var lines []string
	for dr, err := range s.RunFleet(context.Background(), devices) {
		if err != nil {
			t.Fatal(err)
		}
		if dr.Device != len(lines) {
			t.Fatalf("device %d yielded at position %d", dr.Device, len(lines))
		}
		data, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	if len(lines) != devices {
		t.Fatalf("stream yielded %d devices, want %d", len(lines), devices)
	}
	return lines
}

func TestRunFleetDeterministicAcrossWorkerCounts(t *testing.T) {
	const devices = 12
	var got [][]string
	for _, workers := range []int{1, 3, 8} {
		s, err := New(smallPlan(), WithSeed(7), WithWorkers(workers), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, collectFleet(t, s, devices))
	}
	for i := 1; i < len(got); i++ {
		if len(got[i]) != devices {
			t.Fatalf("stream %d yielded %d devices", i, len(got[i]))
		}
		for d := range got[0] {
			if got[i][d] != got[0][d] {
				t.Fatalf("worker-count run %d differs at device %d:\n%s\nvs\n%s",
					i, d, got[i][d], got[0][d])
			}
		}
	}
}

// collectRange drains a RunFleetRange stream into JSON lines, checking
// the device indices cover exactly [lo, hi) in order.
func collectRange(t *testing.T, s *Session, lo, hi int) []string {
	t.Helper()
	var lines []string
	for dr, err := range s.RunFleetRange(context.Background(), lo, hi) {
		if err != nil {
			t.Fatal(err)
		}
		if dr.Device != lo+len(lines) {
			t.Fatalf("device %d yielded at range position %d (lo=%d)", dr.Device, len(lines), lo)
		}
		data, err := json.Marshal(dr)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(data))
	}
	if len(lines) != hi-lo {
		t.Fatalf("range [%d, %d) yielded %d devices", lo, hi, len(lines))
	}
	return lines
}

// TestRunFleetRangeStitchesByteIdentical is the resume-primitive pin:
// [0, k) + [k, n) stitched together must be byte-identical to a full
// [0, n) run, at several split points and worker counts — the property
// the service's crash resume and the roadmap's shard dispatch both
// stand on.
func TestRunFleetRangeStitchesByteIdentical(t *testing.T) {
	const devices = 12
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		s, err := New(smallPlan(), WithSeed(7), WithWorkers(workers), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		want := collectFleet(t, s, devices)
		for _, k := range []int{0, 1, 5, devices - 1, devices} {
			got := append(collectRange(t, s, 0, k), collectRange(t, s, k, devices)...)
			if len(got) != devices {
				t.Fatalf("workers=%d k=%d: stitched %d devices", workers, k, len(got))
			}
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("workers=%d k=%d: stitched device %d differs:\n%s\nvs\n%s",
						workers, k, d, got[d], want[d])
				}
			}
		}
	}
}

func TestRunFleetRangeEmptyAndInvalid(t *testing.T) {
	s, err := New(smallPlan(), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range s.RunFleetRange(context.Background(), 3, 3) {
		t.Fatalf("empty range yielded (err=%v)", err)
	}
	for _, r := range [][2]int{{-1, 2}, {5, 4}} {
		var streamErr error
		for _, err := range s.RunFleetRange(context.Background(), r[0], r[1]) {
			streamErr = err
		}
		if !errors.Is(streamErr, ErrBadDeviceRange) {
			t.Fatalf("range %v err = %v, want ErrBadDeviceRange", r, streamErr)
		}
	}
}

// TestRunFleetRangeReorderWindow pins the reorder bound: while the
// device the stream is waiting on is stuck, workers run at most
// reorderWindow(workers) claims ahead of it, so no device at or past
// lo + window is diagnosed until the stuck one is released — and the
// released stream is still byte-identical to an unobstructed run.
func TestRunFleetRangeReorderWindow(t *testing.T) {
	checkReorderWindow(t, func(s *Session, lo, hi int, emit func(string, error)) {
		for dr, err := range s.RunFleetRange(context.Background(), lo, hi) {
			data, _ := json.Marshal(dr)
			emit(string(data), err)
		}
	})
}

// TestAppendFleetRangeReorderWindow is the same pin for the encoded
// stream: the window bounds the lines the workers encode ahead of the
// stuck device as it bounds the results.
func TestAppendFleetRangeReorderWindow(t *testing.T) {
	checkReorderWindow(t, func(s *Session, lo, hi int, emit func(string, error)) {
		err := s.AppendFleetRange(context.Background(), lo, hi, func(_ int, line []byte) error {
			emit(string(line), nil)
			return nil
		})
		if err != nil {
			emit("", err)
		}
	})
}

// checkReorderWindow runs the reorder-window pin over stream, which
// emits each device of [lo, hi) from s as its JSON line, in order.
func checkReorderWindow(t *testing.T, stream func(s *Session, lo, hi int, emit func(string, error))) {
	for _, tc := range []struct {
		name  string
		batch bool
	}{{"batch", true}, {"per_device", false}} {
		t.Run(tc.name, func(t *testing.T) {
			const workers, lo = 2, 5
			step := 1
			if tc.batch {
				step = sram.BankLanes
			}
			window := reorderWindow(workers) * step
			hi := lo + window + 2*step

			// The observer sticks on device lo. Every other device of
			// the window — [lo+step, lo+window), the claims after the
			// stuck one — must still be diagnosed, and none past it.
			release, filled := make(chan struct{}), make(chan struct{})
			var mu sync.Mutex
			inWindow, over := 0, 0
			s, err := New(smallPlan(), WithSeed(4), WithWorkers(workers),
				WithDeviceObserver(func(d int) {
					mu.Lock()
					switch {
					case d >= lo+window:
						over++
					case d >= lo+step:
						if inWindow++; inWindow == window-step {
							close(filled)
						}
					}
					mu.Unlock()
					if d == lo {
						<-release
					}
				}))
			if err != nil {
				t.Fatal(err)
			}
			s.noBatch = !tc.batch

			ref, err := New(smallPlan(), WithSeed(4), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			want := collectRange(t, ref, lo, hi)

			type line struct {
				data string
				err  error
			}
			lines := make(chan line, hi-lo+1)
			go func() {
				defer close(lines)
				stream(s, lo, hi, func(data string, err error) { lines <- line{data, err} })
			}()
			unblock := sync.OnceFunc(func() { close(release) })
			defer func() {
				unblock()
				for range lines {
				}
			}()

			select {
			case <-filled:
			case <-time.After(10 * time.Second):
				t.Fatalf("window [%d, %d) never filled while device %d was stuck", lo+step, lo+window, lo)
			}
			// A worker that would overrun the window gets time to do so.
			time.Sleep(50 * time.Millisecond)
			mu.Lock()
			n := over
			mu.Unlock()
			if n > 0 {
				t.Fatalf("%d devices at or past %d diagnosed while device %d was stuck", n, lo+window, lo)
			}

			unblock()
			var got []string
			for l := range lines {
				if l.err != nil {
					t.Fatal(l.err)
				}
				got = append(got, l.data)
			}
			if len(got) != len(want) {
				t.Fatalf("released stream yielded %d devices, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("device %d differs from the unobstructed run", lo+i)
				}
			}
		})
	}
}

func TestRunFleetDevicesDrawDistinctDefects(t *testing.T) {
	s, err := New(smallPlan(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	lines := collectFleet(t, s, 6)
	seen := map[string]bool{}
	for _, l := range lines {
		// Strip the device/seed prefix so only the diagnosis is compared.
		var dr DeviceResult
		if err := json.Unmarshal([]byte(l), &dr); err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(dr.Result.Memories)
		seen[string(body)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d devices drew identical defect populations", len(lines))
	}
}

func TestRunFleetConcurrentStreams(t *testing.T) {
	// Two goroutines stream fleets from the same Session at once while
	// two more run it one-shot, all taking fleet workers from the one
	// pool — the -race CI step makes this a data-race probe for the
	// worker pool.
	s, err := New(smallPlan(), WithSeed(11), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	ref := collectFleet(t, s, 8)
	one, err := s.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	oneRef, _ := json.Marshal(one)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 4 {
				res, err := s.RunAll(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				if data, _ := json.Marshal(res); string(data) != string(oneRef) {
					t.Error("concurrent one-shot run differs")
					return
				}
			}
		}()
	}
	results := make([][]string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lines []string
			for dr, err := range s.RunFleet(context.Background(), 8) {
				if err != nil {
					t.Error(err)
					return
				}
				data, _ := json.Marshal(dr)
				lines = append(lines, string(data))
			}
			results[g] = lines
		}()
	}
	wg.Wait()
	for g, lines := range results {
		if len(lines) != len(ref) {
			t.Fatalf("stream %d yielded %d devices, want %d", g, len(lines), len(ref))
		}
		for d := range ref {
			if lines[d] != ref[d] {
				t.Fatalf("concurrent stream %d differs at device %d", g, d)
			}
		}
	}
}

func TestRunFleetCancellationStopsStream(t *testing.T) {
	s, err := New(smallPlan(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	const devices = 500
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	yielded := 0
	var streamErr error
	for _, err := range s.RunFleet(ctx, devices) {
		if err != nil {
			streamErr = err
			break
		}
		yielded++
		cancel() // cancel after the first successful device
	}
	if streamErr == nil {
		t.Fatalf("stream of %d devices completed despite cancellation after %d", devices, yielded)
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", streamErr)
	}
	if yielded >= devices {
		t.Fatalf("yielded all %d devices", yielded)
	}
}

func TestRunFleetEarlyBreakReleasesWorkers(t *testing.T) {
	s, err := New(smallPlan(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range s.RunFleet(context.Background(), 50) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("consumed %d devices", n)
	}
	// The internal cancel must have released the pool; a fresh stream
	// on the same session still works.
	if lines := collectFleet(t, s, 3); len(lines) != 3 {
		t.Fatalf("follow-up stream yielded %d devices", len(lines))
	}
}

func TestRunFleetRejectsBadDeviceCount(t *testing.T) {
	s, err := New(smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	var streamErr error
	for _, err := range s.RunFleet(context.Background(), 0) {
		streamErr = err
	}
	if !errors.Is(streamErr, ErrBadDeviceCount) {
		t.Fatalf("err = %v, want ErrBadDeviceCount", streamErr)
	}
}

// TestFleetBuilderMatchesFreshBuilds pins the memory-pooling path:
// every device a pooled RunFleet stream yields must be byte-identical
// to a fresh Session built with that device's derived seed — Reset +
// reseeded re-inject reproduces the fresh defect draw exactly.
func TestFleetBuilderMatchesFreshBuilds(t *testing.T) {
	const devices, seed = 8, int64(11)
	s, err := New(smallPlan(), WithSeed(seed), WithWorkers(3), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	got := collectFleet(t, s, devices)
	for d := range devices {
		ref, err := New(smallPlan(), WithSeed(deviceSeed(seed, d)), WithDRF())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ref.RunAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(DeviceResult{Device: d, Seed: deviceSeed(seed, d), Result: res})
		if err != nil {
			t.Fatal(err)
		}
		if got[d] != string(want) {
			t.Fatalf("pooled device %d differs from fresh build:\n%s\nvs\n%s", d, got[d], want)
		}
	}
}

// TestFleetBuilderRecyclesAllocations pins the point of the pooling:
// building a device's fleet on a warm worker's recycled memories must
// allocate a small fraction of what a fresh worker's first build
// does.
func TestFleetBuilderRecyclesAllocations(t *testing.T) {
	plan := smallPlan()
	fb, err := newFleetWorker(plan, proposedEngine{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := fb.b.Build(fb.deriveSeeds(3)); err != nil {
		t.Fatal(err) // warm the recycled fault tables
	}
	pooled := testing.AllocsPerRun(50, func() {
		if _, _, err := fb.b.Build(fb.deriveSeeds(3)); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		cold, err := newFleetWorker(plan, proposedEngine{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := cold.b.Build(cold.deriveSeeds(3)); err != nil {
			t.Fatal(err)
		}
	})
	if pooled > fresh/3 {
		t.Fatalf("pooled build allocates %.0f, fresh %.0f — pooling is not paying", pooled, fresh)
	}
}
