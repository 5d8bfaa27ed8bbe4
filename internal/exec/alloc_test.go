package exec_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/workload"
)

// TestSteadyStateAllocs pins the data path at zero heap allocations per
// simulated cycle on the paper testbench: a 20k-cycle run must allocate
// exactly as much as a 10k-cycle run on the same traffic. It covers both
// backends bare and under the global and local analyzers, the event
// backend under the private analyzer (the compiled stepper does not run
// it). Building the system allocates, and so does paging
// in the slaves' memory; the cycles after that must not.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inexact under the race detector; CI runs this test without it")
	}
	const short, long = 10_000, 20_000
	ct := core.PaperSystem().Topology()
	scripts, err := workload.GenerateAll(ct.PaperTraffic(long))
	if err != nil {
		t.Fatal(err)
	}
	// The collector is off while a case is measured: a collection can
	// make the runtime start an OS thread, whose bookkeeping counts as a
	// heap allocation and made the counts vary by one or two between
	// otherwise identical runs. Every data-path allocation is still
	// counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	steady := func(t *testing.T, run func(cycles uint64)) {
		defer runtime.GC()
		allocs := func(cycles uint64) float64 {
			return testing.AllocsPerRun(2, func() { run(cycles) })
		}
		if a, b := allocs(short), allocs(long); a != b {
			t.Errorf("%.0f allocs for a %d-cycle run, %.0f for %d cycles: the data path allocates per cycle",
				a, short, b, long)
		}
	}
	type analyzer struct {
		name  string
		on    bool
		style core.Style
	}
	bare := analyzer{name: "bare"}
	global := analyzer{"analyzer", true, core.StyleGlobal}
	local := analyzer{"analyzer-local", true, core.StyleLocal}
	private := analyzer{"analyzer-private", true, core.StylePrivate}
	cases := []struct {
		backend   exec.Backend
		analyzers []analyzer
	}{
		{exec.Event(), []analyzer{bare, global, local, private}},
		{exec.Compiled(), []analyzer{bare, global, local}},
	}
	for _, c := range cases {
		backend := c.backend
		for _, an := range c.analyzers {
			t.Run(backend.Name()+"/"+an.name, func(t *testing.T) {
				steady(t, func(cycles uint64) {
					sys, err := core.NewSystemTopo(ct)
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.LoadScripts(scripts); err != nil {
						t.Fatal(err)
					}
					if an.on {
						if _, err := core.Attach(sys, core.AnalyzerConfig{Style: an.style}); err != nil {
							t.Fatal(err)
						}
					}
					if err := backend.Run(context.Background(), sys, cycles); err != nil {
						t.Fatal(err)
					}
				})
			})
		}
	}
}
