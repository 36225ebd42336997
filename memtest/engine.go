package memtest

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
)

// EngineOptions is the engine-facing slice of a Session's
// configuration. Every field is public so third-party engines receive
// the same knobs the built-ins do.
type EngineOptions struct {
	// ClockNs is the diagnosis clock period t in ns (defaulted from the
	// plan by the Session).
	ClockNs float64
	// IncludeDRF asks the engine to diagnose data-retention faults:
	// the NWRTM merge for the proposed scheme (no added delay), the
	// 2x100 ms delay phase for the baseline.
	IncludeDRF bool
	// DeliveryOrder is the proposed scheme's background serialization
	// order; MSBFirst is correct, LSBFirst reproduces the Fig. 4
	// hazard.
	DeliveryOrder Order
	// Test overrides the March test for test-programmable engines; nil
	// selects March CW sized for the fleet's widest memory (merged
	// with NWRTM when IncludeDRF is set).
	Test *MarchTest
	// Trace, when non-nil, receives cycle-stamped engine events.
	Trace *TraceRecorder
}

// AnalyticThresholdCells is the largest memory (in cells) the
// bit-accurate baseline simulation is attempted for; larger fleets
// use the baseline's coarse accounting model, because bit-level chain
// simulation becomes impractical.
const AnalyticThresholdCells = 16384

// Engine is one diagnosis architecture. Implementations run the whole
// fleet (the modeled hardware diagnoses all memories in parallel under
// one shared controller) and return the raw cycle-level Report; the
// Session layers truth evaluation, repair and streaming on top.
//
// Engines must honor ctx: a cancelled context should abort the run
// promptly — the built-ins check between March elements or baseline
// iterations — and return ctx.Err().
type Engine interface {
	// Name is the stable registry key, also the CLI -scheme value
	// (e.g. "proposed").
	Name() string
	// Describe is the human-readable architecture label used in
	// reports (e.g. "baseline-[7,8]").
	Describe() string
	// Run diagnoses the fleet.
	Run(ctx context.Context, f *Fleet, opt EngineOptions) (*Report, error)
}

// batchRunner is a fleet worker's bit-sliced batch state, made once
// for the worker's plan: up to sram.BankLanes devices of that plan are
// loaded one per lane and diagnosed by a single schedule pass, which
// returns one Report per lane, byte-identical to what the engine's
// per-device path produces for each device alone. Not safe for
// concurrent use.
type batchRunner interface {
	// load stages one device's fault lists, one per plan memory, into
	// the given lane; load(0, ...) starts a new batch and clears every
	// lane. A device whose faults the batch path cannot model fails
	// with an error wrapping sram.ErrUnbankable.
	load(lane int, truth [][]fault.Fault) error
	// run diagnoses lanes [0, lanes) in one schedule pass and returns
	// their Reports, index = lane, in the runner's storage: valid
	// until its next load or run.
	run(ctx context.Context, lanes int, opt EngineOptions) ([]*Report, error)
	// keep hands the caller the storage behind the last run's located
	// cells and failure records, after which the runner no longer
	// reuses it (bisd.BankRunner.Keep).
	keep()
}

// batchEngine is an engine with a bit-sliced batch path; fleet streams
// detect it and group their devices into sram.BankLanes-wide batches.
// The built-in "proposed" engine is one.
type batchEngine interface {
	Engine
	newBatchRunner(plan Plan) batchRunner
}

var (
	engineMu sync.RWMutex
	engines  = map[string]Engine{}
)

// RegisterEngine adds an engine to the scheme registry under its Name.
// It returns ErrDuplicateEngine if the name is taken; the built-in
// names are "proposed", "baseline", "singledir" and "rawsim".
func RegisterEngine(e Engine) error {
	engineMu.Lock()
	defer engineMu.Unlock()
	if _, ok := engines[e.Name()]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateEngine, e.Name())
	}
	engines[e.Name()] = e
	return nil
}

// LookupEngine resolves a scheme name, returning ErrUnknownScheme for
// names no engine registered.
func LookupEngine(name string) (Engine, error) {
	engineMu.RLock()
	defer engineMu.RUnlock()
	e, ok := engines[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
	return e, nil
}

// Schemes lists the registered scheme names, sorted.
func Schemes() []string {
	engineMu.RLock()
	defer engineMu.RUnlock()
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustRegister(e Engine) {
	if err := RegisterEngine(e); err != nil {
		panic(err)
	}
}
