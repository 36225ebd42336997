// Package memtest is the public face of the library: a session-based,
// streaming API over the paper's built-in self-diagnosis (BISD) engines
// for fleets of heterogeneous embedded SRAMs.
//
// The core workflow is three calls:
//
//	plan := memtest.HeterogeneousExample()
//	s, err := memtest.New(plan, memtest.WithScheme("proposed"), memtest.WithDRF())
//	for d, err := range s.Run(ctx) { ... }
//
// New configures a Session with functional options; Session.Run
// executes the selected diagnosis engine once and streams the evaluated
// per-memory Diagnosis values through an iterator, honoring context
// cancellation. Session.RunFleet fans many devices (per-device seeded
// instances of the same plan) across a worker pool and streams
// per-device results in deterministic device order. RunAll and the
// package-level Diagnose / Compare helpers materialize full results for
// callers that want the one-shot shape.
//
// Diagnosis architectures are pluggable: the built-in engines —
// "proposed" (the paper's SPC/PSC scheme, Fig. 3), "baseline" (the
// bi-directional serial scheme of [7,8], Fig. 1), "singledir" (the
// single-directional interface of [9,10]) and "rawsim" (ideal word-wide
// March execution, the coverage reference) — register themselves under
// those names, and third-party engines join via RegisterEngine without
// any change to the facade.
//
// All result structs marshal to JSON, and failures are reported through
// typed sentinel errors (ErrUnknownScheme, ErrBadGeometry, ...) that
// callers can match with errors.Is.
package memtest

import (
	"errors"

	"repro/internal/bisd"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/march"
	"repro/internal/repair"
	"repro/internal/serial"
	"repro/internal/simulator"
	"repro/internal/trace"
)

// Sentinel errors. Errors returned by this package wrap one of these
// (with context such as the memory name attached), so callers can
// classify failures with errors.Is.
var (
	// ErrUnknownScheme reports a scheme name with no registered engine.
	ErrUnknownScheme = errors.New("memtest: unknown scheme")
	// ErrDuplicateEngine reports a RegisterEngine name collision.
	ErrDuplicateEngine = errors.New("memtest: engine already registered")
	// ErrNoMemories reports a plan with an empty fleet.
	ErrNoMemories = config.ErrNoMemories
	// ErrBadClock reports a non-positive diagnosis clock period.
	ErrBadClock = config.ErrBadClock
	// ErrBadGeometry reports a memory with non-positive words or width.
	ErrBadGeometry = config.ErrBadGeometry
	// ErrBadDefectRate reports a defect rate outside [0,1].
	ErrBadDefectRate = config.ErrBadDefectRate
	// ErrBadDRFCount reports a negative data-retention-fault count.
	ErrBadDRFCount = config.ErrBadDRFCount
	// ErrDuplicateMemoryName reports two memories sharing one name;
	// results are keyed by name, so names must be unique.
	ErrDuplicateMemoryName = config.ErrDuplicateMemoryName
	// ErrBadDeviceCount reports a non-positive RunFleet device count.
	ErrBadDeviceCount = errors.New("memtest: device count must be positive")
	// ErrBadDeviceRange reports a RunFleetRange with lo < 0 or hi < lo.
	ErrBadDeviceRange = errors.New("memtest: invalid device range")
)

// Cell identifies one memory cell by word address and bit position. It
// is the unit of diagnosis: located sets, ground truth and repair all
// speak in Cells.
type Cell = fault.Cell

// Class enumerates the functional fault models (stuck-at, transition,
// coupling, data-retention, ...).
type Class = fault.Class

// FaultClasses returns every fault class the simulator models, in
// canonical order.
func FaultClasses() []Class { return fault.Classes() }

// Order selects the serial delivery order of background patterns.
type Order = serial.Order

const (
	// MSBFirst is the correct delivery order (Sec. 3.2).
	MSBFirst = serial.MSBFirst
	// LSBFirst reproduces the Fig. 4 hazard on heterogeneous widths.
	LSBFirst = serial.LSBFirst
)

// MarchTest is a March algorithm: a named sequence of March elements.
type MarchTest = march.Test

// Budget is a per-memory spare budget for repair allocation.
type Budget = repair.Budget

// Allocation maps located cells onto spares.
type Allocation = repair.Allocation

// YieldStats summarizes repairability over a fleet.
type YieldStats = repair.YieldStats

// Report is a diagnosis engine's raw, cycle-level outcome.
type Report = bisd.Report

// MemoryReport is the raw per-memory engine outcome inside a Report.
type MemoryReport = bisd.MemoryResult

// FailureRecord is one registered miscompare in a MemoryReport.
type FailureRecord = bisd.FailureRecord

// CoverageRow is the per-fault-class outcome of a coverage sweep.
type CoverageRow = simulator.CoverageRow

// TraceRecorder collects cycle-stamped engine events when attached with
// WithTrace.
type TraceRecorder = trace.Recorder

// TraceEvent is one recorded engine event.
type TraceEvent = trace.Event

// NewTraceRecorder returns an enabled recorder keeping at most limit
// events (0 = unlimited). Attach it with WithTrace.
func NewTraceRecorder(limit int) *TraceRecorder { return trace.NewRecorder(limit) }
