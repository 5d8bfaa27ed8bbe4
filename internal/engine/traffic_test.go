package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/fault"
	"ahbpower/internal/workload"
)

// shareGrid is a design-space batch with exactly three distinct traffic
// sets: the paper traffic depends on the slave count (through the address
// span) and not on the policy, the data width or the wait states. An
// empty waits axis keeps the base system's waits.
func shareGrid(cycles uint64, waits ...int) []Scenario {
	return Grid{
		Base:     core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   cycles,
		Slaves:   []int{2, 3, 8},
		Widths:   []int{16, 32},
		Waits:    waits,
		Policies: []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyRoundRobin},
	}.Scenarios()
}

// pinTraffic fixes each scenario's traffic at the paper testbench sized
// for cycles, so that scenarios of different horizons share it.
func pinTraffic(scens []Scenario, cycles uint64) []Scenario {
	for i := range scens {
		ct := scens[i].Topology()
		scens[i].Workloads = ct.PaperTraffic(cycles)
	}
	return scens
}

// transaction returns scens at transaction accuracy.
func transaction(scens []Scenario) []Scenario {
	for i := range scens {
		scens[i].Accuracy = AccuracyTransaction
	}
	return scens
}

// runShared runs a batch like Runner.Run and returns the share it used.
func runShared(ctx context.Context, r *Runner, scenarios []Scenario) ([]Result, *scriptShare) {
	share := newScriptShare(scenarios)
	return r.run(ctx, scenarios, share), share
}

// live returns the number of shared entries not yet dropped.
func (s *scriptShare) live() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// assertSameResult compares every deterministic output of two results
// bit for bit.
func assertSameResult(t *testing.T, got, want Result) {
	t.Helper()
	if got.Err != nil || want.Err != nil {
		t.Fatalf("%s: errors: batch %v, alone %v", got.Scenario.Name, got.Err, want.Err)
	}
	if gb, wb := math.Float64bits(got.Report.TotalEnergy), math.Float64bits(want.Report.TotalEnergy); gb != wb {
		t.Errorf("%s: TotalEnergy bits %#x, alone %#x", got.Scenario.Name, gb, wb)
	}
	if !reflect.DeepEqual(got.Report, want.Report) || !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: report or instruction stats diverge from the scenario run alone", got.Scenario.Name)
	}
	if got.Beats != want.Beats || !reflect.DeepEqual(got.Counts, want.Counts) ||
		!reflect.DeepEqual(got.Faults, want.Faults) || got.Accuracy != want.Accuracy {
		t.Errorf("%s: beats/counts/faults/accuracy diverge: %d %v %+v %s, alone %d %v %+v %s", got.Scenario.Name,
			got.Beats, got.Counts, got.Faults, got.Accuracy, want.Beats, want.Counts, want.Faults, want.Accuracy)
	}
}

// TestShareGeneratesOncePerTrafficSet: a batch with k distinct traffic
// sets of m masters generates each of its k*m per-master scripts exactly
// once, on the cycle-accurate and the transaction paths alike, and walks
// each set once per wait map and horizon: the policy and the data width
// never enter the walk.
func TestShareGeneratesOncePerTrafficSet(t *testing.T) {
	const sets, masters, waitMaps, horizons = 3, 2, 2, 2
	scens := pinTraffic(shareGrid(1500, 0, 2), 1500)
	for _, cycles := range []uint64{1500, 4000} {
		scens = append(scens, transaction(pinTraffic(shareGrid(cycles, 0, 2), 1500))...)
	}
	results, share := runShared(context.Background(), NewRunner(2), scens)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if n := share.generated.Load(); n != sets*masters {
		t.Errorf("generated %d per-master scripts for %d traffic sets of %d masters", n, sets, masters)
	}
	if n := share.walked.Load(); n != sets*waitMaps*horizons {
		t.Errorf("walked %d times for %d traffic sets x %d wait maps x %d horizons", n, sets, waitMaps, horizons)
	}
	if n := share.live(); n != 0 {
		t.Errorf("%d shared entries outlive the batch", n)
	}
}

// TestShareMatchesExecute: batch results with shared traffic are
// Float64bits-identical to the same scenarios run one at a time,
// including transaction estimates that share traffic but differ in wait
// states or horizon, and so must not share a walk.
func TestShareMatchesExecute(t *testing.T) {
	scens := shareGrid(1200)
	scens[1].Faults = activePlan(3)
	scens[2].Faults = &fault.Plan{FailFirst: 1} // retried: the second attempt reuses the scripts
	scens[3].Accuracy = AccuracyTransaction
	scens[4].Backend = "compiled"
	// The two-slave traffic set (scens[0..3]) at two wait maps and two
	// horizons.
	for _, cycles := range []uint64{1200, 3000} {
		for _, sc := range transaction(pinTraffic(shareGrid(cycles, 0, 2), 1200)) {
			if sc.System.NumSlaves == 2 {
				scens = append(scens, sc)
			}
		}
	}
	r := NewRunner(2)
	r.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: 1}
	results, share := runShared(context.Background(), r, scens)
	if n := share.generated.Load(); n != 6 {
		t.Errorf("generated %d per-master scripts, want 6", n)
	}
	if n := share.walked.Load(); n != 4 {
		t.Errorf("walked %d times, want 4 (2 wait maps x 2 horizons)", n)
	}
	for i, sc := range scens {
		alone := Execute(context.Background(), i, sc)
		if sc.Faults != nil && sc.Faults.FailFirst > 0 {
			alone = executeAttempt(context.Background(), i, sc, 1, nil)
		}
		assertSameResult(t, results[i], alone)
	}
}

// TestSharedScriptsStayUnchanged: a 2-worker batch (run it under -race)
// with fault injection, checkpoint capture, resume and transaction
// estimates leaves the shared scripts exactly as generated.
func TestSharedScriptsStayUnchanged(t *testing.T) {
	base := Scenario{
		Name:     "paper",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   3000,
	}
	var blob []byte
	probe := base
	probe.Checkpoint = &CheckpointConfig{Every: 512, Save: func(_ uint64, b []byte) error {
		blob = b
		return errCrash
	}}
	if res := RunOne(context.Background(), probe); blob == nil {
		t.Fatalf("no checkpoint captured: %v", res.Err)
	}
	var scens []Scenario
	for _, v := range []func(*Scenario){
		func(*Scenario) {},
		func(sc *Scenario) { sc.Faults = activePlan(5) },
		func(sc *Scenario) { sc.Faults = activePlan(9); sc.Backend = "compiled" },
		func(sc *Scenario) { sc.Checkpoint = &CheckpointConfig{Resume: blob} },
		func(sc *Scenario) {
			sc.Checkpoint = &CheckpointConfig{Every: 512, Save: func(uint64, []byte) error { return nil }}
		},
		func(sc *Scenario) { sc.Accuracy = AccuracyTransaction },
	} {
		sc := base
		v(&sc)
		scens = append(scens, sc)
	}
	share := newScriptShare(scens)
	if share.live() != 1 {
		t.Fatalf("%d shared entries, want 1", share.live())
	}
	// The entry drops its scripts when the batch ends; keep the slice its
	// users fill in, one master each.
	shared := share.byIndex[0].scripts
	results := NewRunner(2).run(context.Background(), scens, share)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	ct := base.Topology()
	cfgs, err := ct.Traffic(nil, base.Cycles)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := workload.GenerateAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shared, fresh) {
		t.Error("the batch modified its shared scripts")
	}
	if n := share.generated.Load(); n != int64(len(fresh)) {
		t.Errorf("generated %d per-master scripts, want %d", n, len(fresh))
	}
}

// activePlan is a random fault plan that injects faults but never fails
// an attempt outright.
func activePlan(seed int64) *fault.Plan {
	p := fault.RandomPlan(seed)
	p.FailFirst = 0
	return p
}

// TestShareReleasesAfterLastUser: each entry is dropped as soon as its
// last user finishes, including a user that failed, and a cancelled batch
// drops everything.
func TestShareReleasesAfterLastUser(t *testing.T) {
	grid := shareGrid(1000)
	a, b := grid[0], grid[4] // 2 and 3 slaves: different traffic
	failing := a
	failing.Name, failing.Faults = "failing", &fault.Plan{FailFirst: 1}
	scens := []Scenario{a, b, a, b, failing}
	r := NewRunner(1)
	share := newScriptShare(scens)
	keyA, keyB := share.byIndex[0].key, share.byIndex[1].key
	has := func(k string) bool {
		share.mu.Lock()
		defer share.mu.Unlock()
		return share.entries[k] != nil
	}
	want := []struct{ a, b bool }{{true, true}, {true, true}, {true, true}, {true, false}, {false, false}}
	r.OnDone = func(res Result) {
		w := want[res.Index]
		if gotA, gotB := has(keyA), has(keyB); gotA != w.a || gotB != w.b {
			t.Errorf("after scenario %d: entries A=%v B=%v, want A=%v B=%v", res.Index, gotA, gotB, w.a, w.b)
		}
	}
	results := r.run(context.Background(), scens, share)
	if results[4].Err == nil {
		t.Error("FailFirst scenario succeeded without retries")
	}

	ctx, cancel := context.WithCancel(context.Background())
	r = NewRunner(1)
	r.OnStart = func(i int) {
		if i == 1 {
			cancel()
		}
	}
	_, share = runShared(ctx, r, scens)
	if n := share.live(); n != 0 {
		t.Errorf("cancelled batch left %d shared entries", n)
	}
}

// TestShareSkipsMutableSystems: Setup and KeepSystem scenarios hand
// their caller a mutable system, so they always generate privately.
func TestShareSkipsMutableSystems(t *testing.T) {
	sc := shareGrid(800)[0]
	setup, keep := sc, sc
	setup.Setup = func(*core.System) error { return nil }
	keep.KeepSystem = true
	scens := []Scenario{setup, keep, sc}
	share := newScriptShare(scens)
	if share.live() != 0 {
		t.Fatalf("%d shared entries for one shareable scenario", share.live())
	}
	scens = append(scens, sc)
	results, share := runShared(context.Background(), NewRunner(2), scens)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if share.byIndex[0] != nil || share.byIndex[1] != nil {
		t.Error("Setup/KeepSystem scenario resolved to a shared entry")
	}
	if n := share.generated.Load(); n != 6 {
		t.Errorf("generated %d per-master scripts, want 6 (two private sets, one shared, 2 masters each)", n)
	}
}

// TestShareDistinctTrafficHoldsNothing: a batch whose scenarios all have
// distinct traffic shares nothing, so it never holds more scripts than
// running its scenarios one at a time.
func TestShareDistinctTrafficHoldsNothing(t *testing.T) {
	var scens []Scenario
	for seed := int64(1); seed <= 6; seed++ {
		cfg := workload.PaperTestbench(0, 12)
		cfg.Seed, cfg.AddrSize = seed, 0x3000
		scens = append(scens, Scenario{
			Name:      "distinct",
			System:    core.PaperSystem(),
			Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: []workload.Config{cfg},
			Cycles:    800,
		})
	}
	share := newScriptShare(scens)
	if share.live() != 0 {
		t.Fatalf("%d shared entries for all-distinct traffic", share.live())
	}
	for i, e := range share.byIndex {
		if e != nil {
			t.Errorf("scenario %d resolved to a shared entry", i)
		}
	}
	results, share := runShared(context.Background(), NewRunner(2), scens)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if n := share.generated.Load(); n != int64(2*len(scens)) {
		t.Errorf("generated %d per-master scripts for %d scenarios of 2 masters", n, len(scens))
	}
}
