// Package lane_test keeps the 64-scenario full-batch check that once
// covered the bit-parallel lanes backend. That backend is gone; the check
// now holds the batch runner and the compiled backend to the same
// contract: every scenario of a full, staggered batch must come back at
// its own index, bit-identical to its own event-kernel run.
package lane_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/workload"
)

// batchWidth is the batch size of the full-pack check: one scenario per
// bit of a 64-bit word, as the removed lanes backend packed them.
const batchWidth = 64

// runEvent executes the scenario on the event backend (the reference
// semantics) and returns its result.
func runEvent(t *testing.T, sc engine.Scenario) engine.Result {
	t.Helper()
	sc.Backend = exec.NameEvent
	res := engine.RunOne(context.Background(), sc)
	if res.Err != nil {
		t.Fatalf("event backend: %v", res.Err)
	}
	return res
}

// assertSame compares a batch result against the event result
// bit-for-bit: beats, monitor counters, violations, instruction stats and
// the full report including Float64bits-identical energies.
func assertSame(t *testing.T, ev, got engine.Result) {
	t.Helper()
	if got.Err != nil {
		t.Fatalf("batch result error: %v", got.Err)
	}
	if got.Backend != exec.NameCompiled {
		t.Errorf("Backend = %q (fallback %q), want %q", got.Backend, got.BackendFallback, exec.NameCompiled)
	}
	if got.Scenario.Cycles != ev.Scenario.Cycles {
		t.Errorf("Cycles: batch=%d want=%d", got.Scenario.Cycles, ev.Scenario.Cycles)
	}
	if got.Beats != ev.Beats {
		t.Errorf("Beats: batch=%d event=%d", got.Beats, ev.Beats)
	}
	if !reflect.DeepEqual(got.Counts, ev.Counts) {
		t.Errorf("Counts diverge:\nbatch: %v\nevent: %v", got.Counts, ev.Counts)
	}
	if !reflect.DeepEqual(got.Violations, ev.Violations) {
		t.Errorf("Violations diverge:\nbatch: %v\nevent: %v", got.Violations, ev.Violations)
	}
	if !reflect.DeepEqual(got.Stats, ev.Stats) {
		t.Errorf("instruction Stats diverge:\nbatch: %+v\nevent: %+v", got.Stats, ev.Stats)
	}
	if (got.Report == nil) != (ev.Report == nil) {
		t.Fatalf("Report presence: batch=%v event=%v", got.Report != nil, ev.Report != nil)
	}
	if got.Report == nil {
		return
	}
	if gb, eb := math.Float64bits(got.Report.TotalEnergy), math.Float64bits(ev.Report.TotalEnergy); gb != eb {
		t.Errorf("TotalEnergy bits: batch=%#x (%g) event=%#x (%g)",
			gb, got.Report.TotalEnergy, eb, ev.Report.TotalEnergy)
	}
	if !reflect.DeepEqual(got.Report, ev.Report) {
		t.Errorf("Report diverges:\nbatch: %+v\nevent: %+v", got.Report, ev.Report)
	}
}

// TestLaneFullPack runs 64 scenarios differing in workload seed and run
// length as one compiled-backend batch on a worker pool and checks every
// result against its own event run — the scatter contract at full
// occupancy with staggered retirement.
func TestLaneFullPack(t *testing.T) {
	scs := make([]engine.Scenario, batchWidth)
	evs := make([]engine.Result, batchWidth)
	for i := range scs {
		scs[i] = engine.Scenario{
			Name:     "lane",
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: []workload.Config{{
				Seed: int64(100 + i), NumSequences: 20, PairsMin: 1, PairsMax: 4,
				IdleMax: 5, AddrSize: 0x3000,
			}},
			Cycles:  uint64(600 + 13*i), // staggered retirement
			Backend: exec.NameCompiled,
		}
		evs[i] = runEvent(t, scs[i])
	}
	outs := engine.NewRunner(2).Run(context.Background(), scs)
	if len(outs) != batchWidth {
		t.Fatalf("Run returned %d results, want %d", len(outs), batchWidth)
	}
	for i := range outs {
		i := i
		if !t.Run("lane", func(t *testing.T) {
			if outs[i].Index != i {
				t.Fatalf("result %d carries Index %d", i, outs[i].Index)
			}
			assertSame(t, evs[i], outs[i])
		}) {
			break // one diverging scenario is enough output
		}
	}
}
