package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/engine"
)

// Divergence budgets of the transaction-level estimate against the exact
// run, the ones tools/tlmcheck gates on: an estimate outside them is a
// wrong output.
const (
	tlmMedianBudget = 0.05
	tlmMaxBudget    = 0.15
)

// newRunner is the engine runner every grid workload uses: one worker per
// usable CPU and the default retry policy, as cmd/ahbsweep runs.
func newRunner(workers int) *engine.Runner {
	r := engine.NewRunner(workers)
	r.Retry = engine.DefaultRetryPolicy()
	return r
}

func firstErr(results []engine.Result) error {
	if err := engine.FirstError(results); err != nil {
		return err
	}
	return engine.FirstViolation(results)
}

func withBackend(scens []engine.Scenario, backend, accuracy string) []engine.Scenario {
	out := append([]engine.Scenario(nil), scens...)
	for i := range out {
		out[i].Backend = backend
		out[i].Accuracy = accuracy
	}
	return out
}

// gridRun is the timed part shared by the sweep and estimate workloads:
// the whole grid as one Runner.Run per pass, repeated until the time is
// up, every result checked.
type gridRun struct {
	scens []engine.Scenario
	// check validates result i of a pass; an error marks it failed.
	check func(i int, r *engine.Result) error
}

func (g gridRun) measure(ctx context.Context, rep *report, seconds int) (err error) {
	workers := runtime.GOMAXPROCS(0)
	runner := newRunner(workers)
	starts := make([]time.Time, len(g.scens))
	var mu sync.Mutex
	var lat latencies
	runner.OnStart = func(i int) { starts[i] = time.Now() }
	runner.OnDone = func(r engine.Result) {
		d := time.Since(starts[r.Index])
		mu.Lock()
		lat = append(lat, d)
		mu.Unlock()
	}

	// Allocations and CPU time are counted around the passes only, so the
	// reference timings between them stay out.
	host, err := startHostSpeed(workers)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := host.close(); err == nil {
			err = cerr
		}
	}()
	runtime.GC()
	var passCycles uint64
	for i := range g.scens {
		passCycles += g.scens[i].Cycles
	}
	var cycles, allocs uint64
	var busy, cpu time.Duration
	var passRates []float64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for passes := 0; passes == 0 || time.Now().Before(deadline); passes++ {
		m0, cpu0, start := mallocs(), cpuTime(), time.Now()
		results := runner.Run(ctx, g.scens)
		d := time.Since(start)
		cpu += cpuTime() - cpu0
		allocs += mallocs() - m0
		busy += d
		cycles += passCycles
		passRates = append(passRates, float64(passCycles)/d.Seconds())
		for i := range results {
			rep.Attempted++
			if err := g.check(i, &results[i]); err != nil {
				rep.Failed++
				rep.fail("pass %d %s: %v", passes, g.scens[i].Name, err)
			}
		}
		if err := host.probe(); err != nil {
			return err
		}
	}

	p50, tail, level := lat.summary()
	rep.add("norm_cycles_per_s", "1/s", host.rate(median(passRates)))
	rep.add("norm_op_p50_ms", "ms", host.time(p50))
	rep.add("allocs_per_kcycle", "count", float64(allocs)/(float64(cycles)/1000))
	rep.add("allocs_per_op", "count", float64(allocs)/float64(rep.Attempted))
	rep.detail("cycles_per_s", "1/s", median(passRates))
	rep.detail("cycles_per_cpu_s", "1/s", float64(cycles)/cpu.Seconds())
	rep.detail("op_p50_ms", "ms", p50)
	rep.detail("op_tail_ms", "ms", tail)
	rep.detail("host_factor", "ratio", host.factor())
	rep.notef("op = one grid point (Runner OnStart to OnDone); tail is %s of %d points; %d workers; %d passes in %.3f s; cycles_per_s is the median pass",
		fmtLevel(level), len(lat), workers, len(passRates), busy.Seconds())
	rep.notef("norm_* = raw × host_factor (rates) or ÷ host_factor (times); host_factor is the median of %d reference timings, one after each pass, over %v",
		len(host.samples), refNominal)
	return nil
}

// runSweep is the design-space exploration workload: the 54-point grid at
// cycle accuracy on the auto backend, each result Float64bits-identical
// to the event backend's.
func runSweep(o options) (*report, error) {
	ctx := context.Background()
	rep := &report{}
	var scens []engine.Scenario
	// Set-up expands the grid and runs one untimed warm pass of it, which
	// grows the heap to its working size before anything is timed.
	setup, rawSetup, err := timedSetup(setupRuns, func() error {
		scens = gridScenarios(o.seed, sweepCycles, "")
		return firstErr(newRunner(runtime.GOMAXPROCS(0)).Run(ctx, scens))
	})
	if err != nil {
		return nil, err
	}
	rep.addSetup(setup, rawSetup)

	// Reference: the same points on the event backend, outside the timed
	// window.
	refRes := newRunner(runtime.GOMAXPROCS(0)).Run(ctx, withBackend(scens, "event", ""))
	ref := make([][]uint64, len(refRes))
	for i := range refRes {
		if ref[i], err = resultBits(&refRes[i]); err != nil {
			return nil, fmt.Errorf("event reference %s: %w", scens[i].Name, err)
		}
	}
	var fallbacks sync.Map
	err = gridRun{scens: scens, check: func(i int, r *engine.Result) error {
		if r.BackendFallback != "" {
			fallbacks.Store(r.Scenario.Name, r.BackendFallback)
		}
		got, err := resultBits(r)
		if err != nil {
			return err
		}
		return sameBits(got, ref[i])
	}}.measure(ctx, rep, o.seconds)
	if err != nil {
		return nil, err
	}
	fallbacks.Range(func(k, v any) bool {
		rep.notef("backend fallback %s: %s", k, v)
		return true
	})
	rep.add("peak_rss_mb", "MB", peakRSSMB())
	return rep, nil
}

// runEstimate is the transaction-level workload: the same grid estimated
// over a ten times longer horizon. Each pass must reproduce the first
// pass bit for bit, and the first pass must stay within the divergence
// budgets of an exact reference computed outside the timed window.
func runEstimate(o options) (*report, error) {
	ctx := context.Background()
	rep := &report{}
	var scens []engine.Scenario
	setup, rawSetup, err := timedSetup(setupRuns, func() error {
		scens = gridScenarios(o.seed, estimateCycles, engine.AccuracyTransaction)
		return firstErr(newRunner(runtime.GOMAXPROCS(0)).Run(ctx, scens))
	})
	if err != nil {
		return nil, err
	}
	rep.addSetup(setup, rawSetup)

	exact := newRunner(runtime.GOMAXPROCS(0)).Run(ctx, withBackend(scens, "auto", engine.AccuracyCycle))
	if err := firstErr(exact); err != nil {
		return nil, fmt.Errorf("exact reference: %w", err)
	}
	first := make([][]uint64, len(scens))
	divergence := make([]float64, len(scens))
	err = gridRun{scens: scens, check: func(i int, r *engine.Result) error {
		if r.Accuracy != engine.AccuracyTransaction {
			return fmt.Errorf("ran at %q accuracy (fallback: %s)", r.Accuracy, r.BackendFallback)
		}
		got, err := resultBits(r)
		if err != nil {
			return err
		}
		if first[i] == nil {
			first[i] = got
			e := exact[i].Report.TotalEnergy
			divergence[i] = math.Abs(r.Report.TotalEnergy-e) / e
			return nil
		}
		return sameBits(got, first[i])
	}}.measure(ctx, rep, o.seconds)
	if err != nil {
		return nil, err
	}
	rep.add("peak_rss_mb", "MB", peakRSSMB())

	// The per-point budget covers the estimator's calibrated regime. Round
	// robin under the testbench's gappy two-master traffic is outside it
	// (DESIGN.md section 12 documents drifts up to ~35%), so rr points
	// count toward the median and are reported, but not gated one by one.
	var rrWorst float64
	for i, d := range divergence {
		if scens[i].Topo.Policy == ahb.PolicyRoundRobin.String() {
			rrWorst = max(rrWorst, d)
		} else if d > tlmMaxBudget {
			rep.Failed++
			rep.fail("%s: estimate diverges %.2f%% from exact, budget %.0f%%", scens[i].Name, 100*d, 100*tlmMaxBudget)
		}
	}
	sorted := append([]float64(nil), divergence...)
	sort.Float64s(sorted)
	med, worst := median(sorted), sorted[len(sorted)-1]
	rep.detail("tlm_err_pct", "%", 100*med)
	rep.detail("tlm_err_max_pct", "%", 100*worst)
	rep.detail("tlm_err_rr_max_pct", "%", 100*rrWorst)
	if med > tlmMedianBudget {
		rep.fail("estimate divergence median %.2f%% exceeds the %.0f%% budget", 100*med, 100*tlmMedianBudget)
	}
	return rep, nil
}
