package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/exec"
	"ahbpower/internal/tlm"
	"ahbpower/internal/topo"
)

// perLayer lists the traced run's metrics in print order: name, unit and
// the layer whose self time is printed beside it. Every traced run prints
// all of them, whichever workload it replays.
var perLayer = []struct{ name, unit, layer string }{
	{"workload.gen_ms_per_mcycle", "ms/Mcycle", "workload"},
	{"workload.allocs_per_kcycle", "count", "workload"},
	{"topo.check_us", "us", "topo"},
	{"core.build_us", "us", "core"},
	{"exec.event_ns_per_cycle", "ns/cycle", "exec"},
	{"exec.event_bare_ns_per_cycle", "ns/cycle", "exec"},
	{"exec.compiled_ns_per_cycle", "ns/cycle", "exec"},
	{"exec.bare_ns_per_cycle", "ns/cycle", "exec"},
	{"exec.allocs_per_kcycle", "count", "exec"},
	{"sim.deltas_per_cycle", "count", "exec"},
	{"ahb.transfers_per_kcycle", "count", "exec"},
	{"ahb.waits_per_kcycle", "count", "exec"},
	{"ahb.handovers_per_kcycle", "count", "exec"},
	{"power.instr_per_kcycle", "count", "analyzer"},
	{"analyzer.ns_per_cycle", "ns/cycle", "analyzer"},
	{"analyzer.allocs_per_kcycle", "count", "analyzer"},
	{"probe.trace_ns_per_cycle", "ns/cycle", "exec"},
	{"tlm.prepare_ms", "ms", "tlm"},
	{"tlm.estimate_ms", "ms", "tlm"},
	{"tlm.calib_share", "ratio", "tlm"},
	{"tlm.fallbacks", "count", "tlm"},
	{"engine.key_us", "us", "engine"},
	{"engine.queue_wait_ms", "ms", "engine"},
	{"engine.worker_util", "ratio", "engine"},
	{"engine.overhead_us_per_scenario", "us", "engine"},
	{"engine.retries", "count", "engine"},
	{"serve.validate_ms", "ms", "serve"},
	{"serve.overhead_ms", "ms", "serve"},
	{"serve.cache_hit_ratio", "ratio", "serve"},
	{"serve.resp_bytes", "B", "serve"},
	{"serve.rejected", "count", "serve"},
	{"serve.degraded", "count", "serve"},
	{"serve.gen_late_tail_ms", "ms", "serve"},
	{"go.gc_count", "count", ""},
	{"go.gc_pause_ms", "ms", ""},
	{"trace.overhead_pct", "%", "bench"},
	{"bench.self_ms", "ms", "bench"},
	{"workload.self_ms", "ms", "workload"},
	{"topo.self_ms", "ms", "topo"},
	{"core.self_ms", "ms", "core"},
	{"analyzer.self_ms", "ms", "analyzer"},
	{"exec.self_ms", "ms", "exec"},
	{"tlm.self_ms", "ms", "tlm"},
	{"engine.self_ms", "ms", "engine"},
	{"serve.self_ms", "ms", "serve"},
	{"scenario.self_ms", "ms", "scenario"},
}

// Sizes of the traced run. It does fixed work: per-layer figures are
// medians over calls, not rates over a window.
const (
	// replayStride picks every 4th grid point for the layer replay, which
	// covers every slave count, width, wait count and policy.
	replayStride = 4
	// serveTraceSeconds is the length of the traced open-loop burst.
	serveTraceSeconds = 2
	// laneScenarios and laneCycles size the lane-decision set.
	laneScenarios = 64
	laneCycles    = 5_000
)

// variant is one way the replay builds and runs a scenario.
type variant struct {
	backend  string // "event" or "compiled"
	analyzer bool
	trace    bool // windowed power trace (the serve trace_window_s option)
}

var variants = []variant{
	{"event", true, false}, {"event", false, false},
	{"compiled", true, false}, {"compiled", false, false},
	{"compiled", true, true},
}

// replayed is what one variant of one scenario measured.
type replayed struct {
	check, build, load, attach, run call
	cycles, deltas                  uint64
	counts                          map[string]uint64
	instr                           uint64
	bits                            []uint64
}

// replayOne builds sc the way the engine does, one public call at a time:
// topo.Check, core.NewSystemTopo, LoadWorkload, core.Attach, then the
// backend's Run. Each call is a span under one "bench.replay" parent.
func replayOne(tr *tracer, sc engine.Scenario, v variant, req string) (*replayed, error) {
	parent := tr.begin("bench.replay", req, 0)
	defer tr.end(parent)
	ct := sc.Topology()
	r := &replayed{cycles: sc.Cycles}
	var err error
	if r.check, err = tr.measure("topo.Check", req, parent, func() error { return topo.Check(ct) }); err != nil {
		return nil, err
	}
	var sys *core.System
	if r.build, err = tr.measure("core.NewSystemTopo", req, parent, func() (err error) {
		sys, err = core.NewSystemTopo(ct)
		return err
	}); err != nil {
		return nil, err
	}
	if r.load, err = tr.measure("workload.LoadWorkload", req, parent, func() error {
		return sys.LoadWorkload(sc.Workloads...)
	}); err != nil {
		return nil, err
	}
	var an *core.Analyzer
	if v.analyzer {
		cfg := sc.Analyzer
		if v.trace {
			cfg.TraceWindow = serveTraceWindow
		}
		if r.attach, err = tr.measure("analyzer.Attach", req, parent, func() (err error) {
			an, err = core.Attach(sys, cfg)
			return err
		}); err != nil {
			return nil, err
		}
	}
	backend, fallback, err := exec.Select(v.backend, sc.ExecTraits())
	if err != nil {
		return nil, err
	}
	if fallback != "" {
		return nil, fmt.Errorf("%s backend fell back: %s", v.backend, fallback)
	}
	if r.run, err = tr.measure("exec.Run", req, parent, func() error {
		return backend.Run(context.Background(), sys, sc.Cycles)
	}); err != nil {
		return nil, err
	}
	r.deltas = sys.K.DeltaCycles()
	r.counts = sys.Monitor.Counts()
	if an != nil {
		res := engine.Result{Report: an.Report(), Stats: an.FSM().Stats(), Counts: r.counts, Violations: sys.Monitor.Errors()}
		for _, m := range sys.Masters {
			res.Beats += m.Stats().Beats
		}
		for _, st := range res.Stats {
			r.instr += st.Count
		}
		if r.bits, err = resultBits(&res); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// replaySet replays every scenario in every variant, each once untraced
// and then once traced, and returns the traced results[scenario][variant]
// with the summed wall time of both sides: interleaving them gives both
// the same warm caches, so the difference is the tracing cost.
func replaySet(tr *tracer, scens []engine.Scenario) (out [][]*replayed, untraced, traced time.Duration, err error) {
	out = make([][]*replayed, len(scens))
	for i, sc := range scens {
		out[i] = make([]*replayed, len(variants))
		for j, v := range variants {
			for _, t := range []*tracer{nil, tr} {
				start := time.Now()
				r, err := replayOne(t, sc, v, sc.Name)
				if err != nil {
					return nil, 0, 0, fmt.Errorf("replaying %s (%s, analyzer %v): %w", sc.Name, v.backend, v.analyzer, err)
				}
				if t == nil {
					untraced += time.Since(start)
				} else {
					traced += time.Since(start)
					out[i][j] = r
				}
			}
		}
	}
	return out, untraced, traced, nil
}

// tracedSets returns the scenarios the traced run replays and the ones its
// engine phase runs, for the given workload.
func tracedSets(o options) (replay, engineSet []engine.Scenario, err error) {
	grid := gridScenarios(o.seed, sweepCycles, "")
	for i := 0; i < len(grid); i += replayStride {
		replay = append(replay, grid[i])
	}
	switch o.workload {
	case "sweep":
		engineSet = grid
	case "estimate":
		engineSet = gridScenarios(o.seed, estimateCycles, engine.AccuracyTransaction)
	}
	return replay, engineSet, nil
}

// runTraced is the traced run: a layer-by-layer replay of the workload's
// scenarios with every public call in a span, plus a traced pass through
// the transaction-level estimator, the engine runner and the daemon.
func runTraced(o options) (*report, error) {
	rep := &report{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	replaySc, engineSc, err := tracedSets(o)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	rs, untraced, traced, err := replaySet(tr, replaySc)
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	replayMetrics(rep, rs, vals)
	vals["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	rep.notef("replay of %d scenarios x %d variants: %.3f s untraced, %.3f s traced", len(replaySc), len(variants), untraced.Seconds(), traced.Seconds())

	if err := tlmPhase(tr, o.seed, vals); err != nil {
		return nil, err
	}
	if err := enginePhase(tr, rep, engineSc, vals); err != nil {
		return nil, err
	}
	if err := servePhase(tr, rep, o.seed, vals); err != nil {
		return nil, err
	}
	// The literal name, not exec.NameLanes: the row must keep compiling
	// after the lane backend and its constant are deleted.
	if exec.ValidName("lanes") {
		if err := lanePhase(rep, o.seed); err != nil {
			return nil, err
		}
	} else {
		rep.notef("lane rows skipped: the lanes backend is gone")
	}

	runtime.ReadMemStats(&ms1)
	vals["go.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
	vals["go.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	self := layerSelf(tr.spans)
	for _, pl := range perLayer {
		if pl.layer != "" && pl.name == pl.layer+".self_ms" {
			vals[pl.name] = ms(self[pl.layer])
		}
	}
	for _, pl := range perLayer {
		v, ok := vals[pl.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
		rep.add(pl.name, pl.unit, v)
	}
	path, err := tr.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, err
	}
	rep.notef("%d spans written to %s", len(tr.spans), path)
	rep.selfByLayer = self
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replayMetrics derives the core, workload, exec, analyzer and probe
// figures from the replay, and checks that the compiled backend matched
// the event backend bit for bit.
func replayMetrics(rep *report, rs [][]*replayed, vals map[string]float64) {
	var gen, genAllocs, check, build, evt, evtBare, comp, bare, execAllocs, anNs, anAllocs, probeNs []float64
	var cycles, deltas, transfers, waits, handovers, instr float64
	for i, vs := range rs {
		ea, eb, ca, cb, ct := vs[0], vs[1], vs[2], vs[3], vs[4]
		rep.Attempted++
		if err := sameBits(ca.bits, ea.bits); err != nil {
			rep.Failed++
			rep.fail("replay %d: compiled differs from event: %v", i, err)
		}
		kc := float64(ea.cycles) / 1000
		perCycle := func(c call) float64 { return float64(c.d.Nanoseconds()) / float64(ea.cycles) }
		for _, r := range vs {
			gen = append(gen, ms(r.load.d)/(float64(r.cycles)/1e6))
			genAllocs = append(genAllocs, float64(r.load.allocs)/kc)
			check = append(check, float64(r.check.d.Nanoseconds())/1e3)
			build = append(build, float64(r.build.d.Nanoseconds())/1e3)
		}
		evt = append(evt, perCycle(ea.run))
		evtBare = append(evtBare, perCycle(eb.run))
		comp = append(comp, perCycle(ca.run))
		bare = append(bare, perCycle(cb.run))
		execAllocs = append(execAllocs, float64(cb.run.allocs)/kc)
		anNs = append(anNs, perCycle(ca.run)-perCycle(cb.run))
		anAllocs = append(anAllocs, (float64(ca.attach.allocs)+float64(ca.run.allocs)-float64(cb.run.allocs))/kc)
		probeNs = append(probeNs, perCycle(ct.run)-perCycle(ca.run))
		cycles += float64(ea.cycles)
		deltas += float64(ea.deltas)
		transfers += float64(ea.counts["nonseq"] + ea.counts["seq"])
		waits += float64(ea.counts["wait"])
		handovers += float64(ea.counts["handover"])
		instr += float64(ea.instr)
	}
	vals["workload.gen_ms_per_mcycle"] = median(gen)
	vals["workload.allocs_per_kcycle"] = median(genAllocs)
	vals["topo.check_us"] = median(check)
	vals["core.build_us"] = median(build)
	vals["exec.event_ns_per_cycle"] = median(evt)
	vals["exec.event_bare_ns_per_cycle"] = median(evtBare)
	vals["exec.compiled_ns_per_cycle"] = median(comp)
	vals["exec.bare_ns_per_cycle"] = median(bare)
	vals["exec.allocs_per_kcycle"] = median(execAllocs)
	vals["sim.deltas_per_cycle"] = deltas / cycles
	vals["ahb.transfers_per_kcycle"] = 1000 * transfers / cycles
	vals["ahb.waits_per_kcycle"] = 1000 * waits / cycles
	vals["ahb.handovers_per_kcycle"] = 1000 * handovers / cycles
	vals["power.instr_per_kcycle"] = 1000 * instr / cycles
	vals["analyzer.ns_per_cycle"] = median(anNs)
	vals["analyzer.allocs_per_kcycle"] = median(anAllocs)
	vals["probe.trace_ns_per_cycle"] = median(probeNs)
}

// tlmPhase prepares and estimates the replay grid points at the estimate
// horizon, one call at a time.
func tlmPhase(tr *tracer, seed int64, vals map[string]float64) error {
	grid := gridScenarios(seed, estimateCycles, engine.AccuracyTransaction)
	var prep, est []float64
	var calib, total float64
	for i := 0; i < len(grid); i += replayStride {
		sc := grid[i]
		parent := tr.begin("bench.estimate", sc.Name, 0)
		spec := tlm.Spec{Name: sc.Name, Topo: sc.Topology(), Analyzer: sc.Analyzer, Workloads: sc.Workloads, Cycles: sc.Cycles}
		var p *tlm.Prepared
		c1, err := tr.measure("tlm.Prepare", sc.Name, parent, func() (err error) {
			p, err = tlm.Prepare(spec)
			return err
		})
		if err != nil {
			return err
		}
		var out *tlm.Outcome
		c2, err := tr.measure("tlm.Estimate", sc.Name, parent, func() (err error) {
			out, err = p.Estimate(context.Background())
			return err
		})
		if err != nil {
			return err
		}
		tr.end(parent)
		prep = append(prep, ms(c1.d))
		est = append(est, ms(c2.d))
		calib += float64(out.CalibrationCycles)
		total += float64(out.Cycles)
	}
	vals["tlm.prepare_ms"] = median(prep)
	vals["tlm.estimate_ms"] = median(est)
	vals["tlm.calib_share"] = calib / total
	return nil
}

// enginePhase runs the workload's scenario set as one Runner.Run, with a
// span per scenario from the OnStart and OnDone hooks.
func enginePhase(tr *tracer, rep *report, scens []engine.Scenario, vals map[string]float64) error {
	var keys []float64
	for _, sc := range scens {
		c, err := tr.measure("engine.CanonicalKey", sc.Name, 0, func() error {
			if _, ok := sc.CanonicalKey(); !ok {
				return fmt.Errorf("%s has no canonical key", sc.Name)
			}
			return nil
		})
		if err != nil {
			return err
		}
		keys = append(keys, float64(c.d.Nanoseconds())/1e3)
	}
	workers := runtime.GOMAXPROCS(0)
	runner := newRunner(workers)
	starts := make([]time.Time, len(scens))
	dones := make([]time.Time, len(scens))
	runner.OnStart = func(i int) { starts[i] = time.Now() }
	runner.OnDone = func(r engine.Result) { dones[r.Index] = time.Now() }
	runID := tr.begin("engine.Run", "batch", 0)
	begin := time.Now()
	results := runner.Run(context.Background(), scens)
	wall := time.Since(begin)
	tr.end(runID)

	var waits, overheads []float64
	var busy time.Duration
	retries, fallbacks := 0, 0
	for i := range results {
		r := &results[i]
		rep.Attempted++
		if err := firstErr(results[i : i+1]); err != nil {
			rep.Failed++
			rep.fail("engine phase %s: %v", r.Scenario.Name, err)
			continue
		}
		tr.record("scenario.run", r.Scenario.Name, runID, starts[i], dones[i])
		d := dones[i].Sub(starts[i])
		busy += d
		waits = append(waits, ms(starts[i].Sub(begin)))
		overheads = append(overheads, float64((d-r.Metrics.Build-r.Metrics.Run).Nanoseconds())/1e3)
		retries += r.Attempts - 1
		if engine.NormalizeAccuracy(r.Scenario.Accuracy) == engine.AccuracyTransaction && r.Accuracy != engine.AccuracyTransaction {
			fallbacks++
		}
	}
	vals["engine.key_us"] = median(keys)
	vals["engine.queue_wait_ms"] = median(waits)
	vals["engine.worker_util"] = busy.Seconds() / (wall.Seconds() * float64(min(workers, len(scens))))
	vals["engine.overhead_us_per_scenario"] = median(overheads)
	vals["engine.retries"] = float64(retries)
	vals["tlm.fallbacks"] = float64(fallbacks)
	return nil
}

// servePhase runs validate calls and a short traced open-loop burst of the
// daemon mix against a fresh in-process server.
func servePhase(tr *tracer, rep *report, seed int64, vals map[string]float64) error {
	workers := runtime.GOMAXPROCS(0)
	d, hot, hotBytes, reqs, err := setupDaemon(seed, int(serveRate*serveTraceSeconds), workers)
	if err != nil {
		return err
	}
	defer d.stop()
	var validate []float64
	for k, sc := range hot {
		body, err := requestBody(specOf(sc))
		if err != nil {
			return err
		}
		id := tr.begin("serve.validate", "validate"+strconv.Itoa(k), 0)
		start := time.Now()
		r, err := d.client.Post(d.url+"/v1/validate", "application/json", bytes.NewReader(body))
		if err == nil {
			err = validated(r)
		}
		validate = append(validate, ms(time.Since(start)))
		tr.end(id)
		if err != nil {
			return fmt.Errorf("validate: %w", err)
		}
	}
	lr, err := d.load(reqs, tr)
	if err != nil {
		return err
	}
	overheads := lr.check(rep, reqs, hot, hotBytes)
	var sizes []float64
	var hitLat, freshLat latencies
	for i, o := range lr.out {
		sizes = append(sizes, float64(o.size))
		if reqs[i].kind == kindHit {
			hitLat = append(hitLat, lr.lat[i])
		} else {
			freshLat = append(freshLat, lr.lat[i])
		}
	}
	hitP50, hitTail, hl := hitLat.summary()
	freshP50, freshTail, fl := freshLat.summary()
	rep.notef("daemon burst, latency from each request's due time: %d hits p50 %.3f ms, %s %.3f ms; %d fresh runs p50 %.3f ms, %s %.3f ms",
		len(hitLat), hitP50, fmtLevel(hl), hitTail, len(freshLat), freshP50, fmtLevel(fl), freshTail)
	_, lateTail, _ := latencies(lr.late).summary()
	overheadP50, _, _ := overheads.summary()
	vals["serve.validate_ms"] = median(validate)
	vals["serve.overhead_ms"] = overheadP50
	hits, misses := lr.counters["cache_hits"], lr.counters["cache_misses"]
	vals["serve.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
	vals["serve.resp_bytes"] = median(sizes)
	vals["serve.rejected"] = lr.counters["rejected_busy"] + lr.counters["rejected_draining"]
	vals["serve.degraded"] = lr.counters["degraded_batches"]
	vals["serve.gen_late_tail_ms"] = lateTail
	return nil
}

// validated reads a /v1/validate response and requires a valid verdict.
func validated(r *http.Response) error {
	defer r.Body.Close()
	var v struct {
		Valid bool `json:"valid"`
	}
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		return err
	}
	if r.StatusCode != http.StatusOK || !v.Valid {
		return fmt.Errorf("status %d, valid %v", r.StatusCode, v.Valid)
	}
	return nil
}

// lanePhase feeds the lane decision: a 64-scenario single-shape set run on
// the lanes and compiled backends at 1 and at GOMAXPROCS workers. Its rows
// are printed as notes, not metrics, so removing the lanes backend leaves
// the metric set unchanged.
func lanePhase(rep *report, seed int64) error {
	shape := paperShape(3, 32, 0, 0)
	var scens []engine.Scenario
	for k := 0; k < laneScenarios; k++ {
		t := shape
		scens = append(scens, engine.Scenario{
			Name: fmt.Sprintf("lane%d", k), Topo: &t, Cycles: laneCycles,
			Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: paperTraffic(t, seed, 5000+uint64(k), laneCycles),
		})
	}
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		var walls [2]time.Duration
		var bits [2][][]uint64
		for b, backend := range []string{"lanes", "compiled"} {
			start := time.Now()
			results := newRunner(workers).Run(context.Background(), withBackend(scens, backend, ""))
			walls[b] = time.Since(start)
			for i := range results {
				v, err := resultBits(&results[i])
				if err != nil {
					return fmt.Errorf("lane phase %s on %s: %w", scens[i].Name, backend, err)
				}
				bits[b] = append(bits[b], v)
			}
		}
		for i := range scens {
			rep.Attempted++
			if err := sameBits(bits[0][i], bits[1][i]); err != nil {
				rep.Failed++
				rep.fail("lanes differ from compiled on %s: %v", scens[i].Name, err)
			}
		}
		laneCyclesTotal := float64(laneScenarios * laneCycles)
		rep.notef("lane.ns_per_lane_cycle at %d workers: %.1f ns; lane.speedup_vs_compiled at %d workers: %.2fx",
			workers, float64(walls[0].Nanoseconds())/laneCyclesTotal, workers, walls[1].Seconds()/walls[0].Seconds())
	}
	return nil
}

// printLayers prints every per-layer metric beside its layer's self time.
func (r *report) printLayers() {
	fmt.Printf("  %-34s %14s %-10s %s\n", "per-layer metric", "value", "unit", "layer self time")
	for _, x := range r.Metrics {
		layer := ""
		for _, pl := range perLayer {
			if pl.name == x.Name {
				layer = pl.layer
			}
		}
		self := "-"
		if layer != "" {
			self = fmt.Sprintf("%s %.1f ms", layer, ms(r.selfByLayer[layer]))
		}
		fmt.Printf("  %-34s %14.6g %-10s %s\n", x.Name, x.Value, x.Unit, self)
	}
}
