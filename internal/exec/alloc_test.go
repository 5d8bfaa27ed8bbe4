package exec_test

import (
	"context"
	"testing"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/workload"
)

// TestSteadyStateAllocs pins the data path at zero heap allocations per
// simulated cycle on the paper testbench: a 20k-cycle run must allocate
// exactly as much as a 10k-cycle run on the same traffic, for both
// backends, with and without the global analyzer. Building the system
// allocates, and so does paging in the slaves' memory; the cycles after
// that must not.
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
	for _, backend := range []exec.Backend{exec.Event(), exec.Compiled()} {
		for _, analyzer := range []bool{false, true} {
			name := backend.Name() + "/bare"
			if analyzer {
				name = backend.Name() + "/analyzer"
			}
			t.Run(name, func(t *testing.T) {
				allocs := func(cycles uint64) float64 {
					return testing.AllocsPerRun(2, func() {
						sys, err := core.NewSystemTopo(ct)
						if err != nil {
							t.Fatal(err)
						}
						if err := sys.LoadScripts(scripts); err != nil {
							t.Fatal(err)
						}
						if analyzer {
							if _, err := core.Attach(sys, core.AnalyzerConfig{Style: core.StyleGlobal}); err != nil {
								t.Fatal(err)
							}
						}
						if err := backend.Run(context.Background(), sys, cycles); err != nil {
							t.Fatal(err)
						}
					})
				}
				if a, b := allocs(short), allocs(long); a != b {
					t.Errorf("%.0f allocs for a %d-cycle run, %.0f for %d cycles: the data path allocates per cycle",
						a, short, b, long)
				}
			})
		}
	}
}
