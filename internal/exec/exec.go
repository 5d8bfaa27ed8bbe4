// Package exec is the execution-backend seam between model construction
// and simulation. A built core.System does not care how its cycles are
// advanced; a Backend supplies that policy. Two backends exist, and the
// "auto" hint picks between them per scenario:
//
//   - "event": the reference discrete-event kernel (internal/sim event
//     heap, delta cycles, sensitivity-driven scheduling). Always
//     available, always exact.
//   - "compiled": a Verilator-style straight-line stepper that executes
//     a static per-cycle schedule (posedge processes in registration
//     order, then topologically ordered combinational waves) with no
//     event heap and no sensitivity bookkeeping. Bit-identical to the
//     event backend for every scenario it supports, several times
//     faster, and restricted to static topologies without delta-level
//     instrumentation.
//
// Results are byte-identical across backends for supported scenarios —
// the golden equivalence suites and the backend fuzzer enforce it —
// which is why a backend hint is an execution detail and deliberately
// excluded from engine.Scenario.CanonicalKey: a cached result answers a
// scenario regardless of which backend computed it.
package exec

import (
	"context"
	"fmt"

	"ahbpower/internal/core"
	"ahbpower/internal/sim"
)

// Backend names accepted by Select and the -backend CLI flags.
const (
	// NameEvent selects the reference event-driven kernel.
	NameEvent = "event"
	// NameCompiled selects the straight-line compiled stepper, falling
	// back to the event backend (with a surfaced reason) for scenarios it
	// cannot honor.
	NameCompiled = "compiled"
	// NameAuto selects the compiled backend whenever the scenario supports
	// it and the event backend otherwise; the fallback reason is surfaced
	// the same way as for an explicit compiled request.
	NameAuto = "auto"
)

// Backend advances a built system by a number of bus clock cycles. A
// Backend must preserve the execution contract the event kernel defines:
// settled-timestep observers fire once per cycle in registration order,
// cancellation stops at a cycle-slice boundary with the system resumable,
// and every supported scenario produces results bit-identical to the
// event backend's.
type Backend interface {
	// Name identifies the backend in results, metrics and logs.
	Name() string
	// Run advances sys by cycles bus cycles, honoring ctx cancellation
	// exactly like core.System.RunContext. A system must be driven by a
	// single backend for its whole lifetime.
	Run(ctx context.Context, sys *core.System, cycles uint64) error
}

// Traits captures the execution-relevant features of a scenario, so
// backend selection can happen before the system is built. The engine
// fills it from a Scenario; anything the compiled stepper cannot honor
// shows up here.
type Traits struct {
	// HasSetup marks a custom Setup hook: arbitrary construction-time code
	// may register processes or schedule events the static schedule does
	// not know about.
	HasSetup bool
	// HasDPM marks an attached dynamic-power-management estimator.
	HasDPM bool
	// DeltaInstrumented marks delta-level instrumentation (the private
	// analyzer style counts per-delta glitches through signal watchers,
	// which a one-update-per-cycle stepper would undercount).
	DeltaInstrumented bool
	// ClockPeriod is the bus clock period; the flat stepper requires an
	// even period (an odd one makes the event clock drift against the
	// nominal period, which the straight-line timestamps cannot mirror).
	ClockPeriod sim.Time
	// Checkpoint marks that the scenario requests periodic state
	// snapshots at chunk boundaries (crash-safe resume). Both
	// cycle-accurate backends honor it; the transaction-level estimator
	// cannot — it carries no kernel state to snapshot — so the engine
	// routes checkpoint-requesting scenarios away from it with a
	// surfaced reason.
	Checkpoint bool
}

// Unsupported returns the reason the compiled backend cannot honor a
// scenario with these traits, or "" when it can.
func (t Traits) Unsupported() string {
	period := t.ClockPeriod
	if period < 2 {
		period = 2 // sim.NewClock clamps sub-minimum periods the same way
	}
	switch {
	case t.HasSetup:
		return "custom Setup hook"
	case t.HasDPM:
		return "DPM estimator attached"
	case t.DeltaInstrumented:
		return "delta-level (private-style) instrumentation"
	case period%2 != 0:
		return fmt.Sprintf("odd clock period %d", t.ClockPeriod)
	}
	return ""
}

// CheckpointUnsupported returns the reason a scenario with these traits
// cannot be checkpointed, or "" when checkpoint/resume is eligible.
// Eligibility is a property of the scenario, not the backend: both
// cycle-accurate backends (event and compiled) snapshot at the same
// settled chunk boundaries. A custom Setup hook may register processes
// or state the snapshot protocol cannot see, and a DPM estimator keeps
// windowed history outside the snapshot; both are rejected rather than
// silently resumed wrong. Analyzer-side ineligibility (trace recorders,
// windowed traces, activity recording) is reported separately by
// core.Analyzer.SnapshotUnsupported.
func (t Traits) CheckpointUnsupported() string {
	switch {
	case t.HasSetup:
		return "custom Setup hook"
	case t.HasDPM:
		return "DPM estimator attached"
	}
	return ""
}

// Event returns the reference event-driven backend.
func Event() Backend { return eventBackend{} }

// Compiled returns the straight-line compiled backend. Callers are
// expected to consult Traits.Unsupported first; Run fails (rather than
// silently degrading) when the built system violates the flat-execution
// contract.
func Compiled() Backend { return compiledBackend{} }

type eventBackend struct{}

func (eventBackend) Name() string { return NameEvent }

func (eventBackend) Run(ctx context.Context, sys *core.System, cycles uint64) error {
	return sys.RunContext(ctx, cycles)
}

type compiledBackend struct{}

func (compiledBackend) Name() string { return NameCompiled }

func (compiledBackend) Run(ctx context.Context, sys *core.System, cycles uint64) error {
	flat, err := sys.Bus.NewFlat()
	if err != nil {
		return fmt.Errorf("exec: compiled backend: %w", err)
	}
	return sys.RunContextStepped(ctx, cycles, flat.RunCycles)
}

// ValidName reports whether name is an accepted backend hint. The empty
// string is valid and means the default (event) backend.
func ValidName(name string) bool {
	switch name {
	case "", NameEvent, NameCompiled, NameAuto:
		return true
	}
	return false
}

// Select resolves a backend hint against a scenario's traits. The empty
// hint and "event" select the event backend. "compiled" and "auto" select
// the compiled backend when the traits allow it and otherwise fall back
// to the event backend, returning the surfaced fallback reason. Unknown
// hints are an error.
func Select(hint string, t Traits) (b Backend, fallbackReason string, err error) {
	switch hint {
	case "", NameEvent:
		return Event(), "", nil
	case NameCompiled, NameAuto:
		if reason := t.Unsupported(); reason != "" {
			return Event(), reason, nil
		}
		return Compiled(), "", nil
	}
	return nil, "", fmt.Errorf("exec: unknown backend %q (want %s|%s|%s)", hint, NameEvent, NameCompiled, NameAuto)
}
