package memtest

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/trace"
)

func TestRunStreamsPerMemory(t *testing.T) {
	s, err := New(smallPlan(), WithDRF())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for d, err := range s.Run(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		if d.TruthLocated != d.Detectable || d.FalsePositives != 0 {
			t.Errorf("%s: imperfect diagnosis %+v", d.Name, d)
		}
		names = append(names, d.Name)
	}
	if fmt.Sprint(names) != "[a b]" {
		t.Fatalf("streamed %v, want plan order [a b]", names)
	}
}

func TestRunEarlyBreakStopsCleanly(t *testing.T) {
	s, err := New(smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, err := range s.Run(context.Background()) {
		if err != nil {
			t.Fatal(err)
		}
		n++
		break
	}
	if n != 1 {
		t.Fatalf("consumed %d diagnoses after break", n)
	}
}

func TestRunHonorsCancelledContext(t *testing.T) {
	for _, scheme := range []string{"proposed", "baseline", "singledir", "rawsim"} {
		s, err := New(smallPlan(), WithScheme(scheme))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got := 0
		var streamErr error
		for _, err := range s.Run(ctx) {
			if err != nil {
				streamErr = err
				break
			}
			got++
		}
		if got != 0 {
			t.Errorf("%s: yielded %d diagnoses under a cancelled context", scheme, got)
		}
		if !errors.Is(streamErr, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", scheme, streamErr)
		}
	}
}

func TestBaselineAnalyticModeHonorsCancelledContext(t *testing.T) {
	// Benchmark16 exceeds AnalyticThresholdCells, so the baseline
	// engine auto-routes to the analytic model — which must also honor
	// cancellation.
	s, err := New(Benchmark16(), WithScheme("baseline"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunAllHonorsCancelledContext(t *testing.T) {
	s, err := New(smallPlan())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunAll(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestWithTraceRecordsEngineEvents(t *testing.T) {
	rec := NewTraceRecorder(0)
	s, err := New(smallPlan(), WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(s.Trace()) == 0 {
		t.Fatal("no trace events recorded")
	}
	if len(rec.Filter(trace.Miscompare)) == 0 {
		t.Fatal("a defective fleet recorded no miscompares")
	}
}

func TestWithSeedIsDeterministicAndDistinct(t *testing.T) {
	run := func(seed int64) *Result {
		res, err := Diagnose(context.Background(), smallPlan(), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a1, a2, b := run(1), run(1), run(2)
	if fmt.Sprint(a1.Memories) != fmt.Sprint(a2.Memories) {
		t.Fatal("same seed produced different results")
	}
	if fmt.Sprint(a1.Memories) == fmt.Sprint(b.Memories) {
		t.Fatal("different seeds produced identical defect draws")
	}
}

func TestWithMarchTestOverride(t *testing.T) {
	// A write-only "test" reads nothing, so nothing can be located.
	test, err := ParseMarch("a(w0)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Diagnose(context.Background(), smallPlan(), WithMarchTest(test))
	if err != nil {
		t.Fatal(err)
	}
	for _, md := range res.Memories {
		if len(md.Located) != 0 {
			t.Fatalf("write-only test located %v", md.Located)
		}
	}
}

// countingEngine wraps a built-in engine and counts invocations — the
// third-party pluggability path: an external implementation composes
// registered engines without touching the facade.
type countingEngine struct {
	inner Engine
	runs  int
}

func (e *countingEngine) Name() string     { return "counting" }
func (e *countingEngine) Describe() string { return "counting wrapper" }
func (e *countingEngine) Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error) {
	e.runs++
	if f.Len() == 0 || f.WidestWidth() == 0 {
		return nil, fmt.Errorf("countingEngine: fleet accessors broken")
	}
	return e.inner.Run(ctx, f, opt)
}

func TestThirdPartyEnginePluggable(t *testing.T) {
	inner, err := LookupEngine("proposed")
	if err != nil {
		t.Fatal(err)
	}
	ce := &countingEngine{inner: inner}
	if err := RegisterEngine(ce); err != nil {
		t.Fatal(err)
	}
	if err := RegisterEngine(ce); !errors.Is(err, ErrDuplicateEngine) {
		t.Fatalf("second register err = %v, want ErrDuplicateEngine", err)
	}
	res, err := Diagnose(context.Background(), smallPlan(), WithScheme("counting"))
	if err != nil {
		t.Fatal(err)
	}
	if ce.runs != 1 {
		t.Fatalf("engine ran %d times", ce.runs)
	}
	if res.Scheme != "counting wrapper" || res.Engine != "counting" {
		t.Fatalf("result labels %q/%q", res.Scheme, res.Engine)
	}
	if res.Memories[0].TruthLocated == 0 {
		t.Fatal("wrapped engine lost the diagnosis")
	}
}

func TestWithEngineBypassesRegistry(t *testing.T) {
	inner, err := LookupEngine("rawsim")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(smallPlan(), WithEngine(inner))
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine().Name() != "rawsim" {
		t.Fatalf("engine %q", s.Engine().Name())
	}
}
