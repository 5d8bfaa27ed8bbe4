package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/engine"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {5, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The chosen level leaves at least ten samples beyond it whenever
		// any level can.
		if p := tailPercentile(c.n); p != 50 && c.n-(c.n*permille(p)+999)/1000 < 10 {
			t.Errorf("n=%d: level %v has fewer than ten samples beyond it", c.n, p)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{16, 1, 8, 2, 4}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v, want 1.5, 12", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestHostSpeedScaling(t *testing.T) {
	// A host twice as slow as nominal: the reference takes twice
	// refNominal, so a raw rate doubles and a raw time halves.
	nom := refNominal.Seconds()
	h := &hostSpeed{samples: []float64{2 * nom, 9 * nom, 2 * nom, 1.5 * nom, 2.5 * nom}}
	if f := h.factor(); f != 2 {
		t.Fatalf("factor = %v, want 2 (median of the samples over refNominal)", f)
	}
	if got := h.rate(100); got != 200 {
		t.Errorf("rate(100) = %v, want 200", got)
	}
	if got := h.time(10); got != 5 {
		t.Errorf("time(10) = %v, want 5", got)
	}
	// The reference process answers every input line with one time.
	var out strings.Builder
	if err := serveReference(strings.NewReader("\n\n"), &out, 2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(out.String())
	if len(lines) != 2 {
		t.Fatalf("reference answered %q to two requests", out.String())
	}
	for _, l := range lines {
		if v, err := strconv.ParseFloat(l, 64); err != nil || v <= 0 {
			t.Errorf("reference time %q, want a positive number of seconds", l)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "engine.Run", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [30,50) and one running
		// past the parent's end: the union inside the parent is
		// [10,70) + [90,100) = 70 ms.
		{ID: 2, Parent: 1, Name: "scenario.run", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "scenario.run", Start: 30 * ms, End: 70 * ms},
		{ID: 4, Parent: 1, Name: "scenario.run", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 3, Name: "exec.Run", Start: 40 * ms, End: 60 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30 * ms, 2: 40 * ms, 3: 20 * ms, 4: 30 * ms, 5: 20 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	layers := layerSelf(spans)
	if layers["engine"] != 30*ms || layers["scenario"] != 90*ms || layers["exec"] != 20*ms {
		t.Errorf("layer self times = %v", layers)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("core.NewSystemTopo", "x", 0)
	if id != 0 || tr.end(id) != 0 {
		t.Fatal("nil tracer returned a span")
	}
	if _, err := tr.measure("core.Attach", "x", 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoopTimesFromSchedule stalls the first request and checks that
// the requests queued behind it are charged the wait: latency runs from
// each request's scheduled send, not from when a connection freed up.
func TestOpenLoopTimesFromSchedule(t *testing.T) {
	const stall = 300 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	client := srv.Client()
	const n, rate = 10, 100.0 // request i is due at i*10ms
	lat, late := openLoop(n, rate, 1, func(i int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
	})
	for i := 1; i < n; i++ {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		// Request i could only start after the stalled one finished.
		if min := stall - due - 20*time.Millisecond; lat[i] < min {
			t.Errorf("request %d: latency %v, want at least %v (queued behind the stall)", i, lat[i], min)
		}
	}
	if lat[0] < stall {
		t.Errorf("stalled request latency %v < %v", lat[0], stall)
	}
	if len(late) != n {
		t.Fatalf("lateness has %d entries, want %d", len(late), n)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "exec.bare_ns_per_cycle", "a-b.c_9", "9lives", strings.Repeat("a", 64)} {
		if !validName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "p99/ms", "ns·cycle", "a:b", strings.Repeat("a", 65)} {
		if validName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	r := &report{Attempted: 1}
	r.add("bad name", "ms", 1)
	if _, err := r.finalLine(); err == nil {
		t.Error("finalLine accepted a metric name outside the charset")
	}
	for _, m := range endToEnd {
		if !validName.MatchString(m.name) {
			t.Errorf("end-to-end metric %q is outside the charset", m.name)
		}
	}
	for _, m := range perLayer {
		if !validName.MatchString(m.name) {
			t.Errorf("per-layer metric %q is outside the charset", m.name)
		}
	}
}

func TestFinalLineShape(t *testing.T) {
	r := &report{Attempted: 3, Failed: 1}
	r.add("setup_s", "s", 0.5)
	line, err := r.finalLine()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] != false || got["attempted"] != 3.0 || got["failed"] != 1.0 {
		t.Errorf("final line %s: a failed operation must make correct false", line)
	}
	m := got["metrics"].(map[string]any)["setup_s"].(map[string]any)
	if m["value"] != 0.5 || m["unit"] != "s" {
		t.Errorf("metric rendered as %v", m)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// lists the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s/%s vs %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s/%s vs %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// runSmall runs a short cycle-accurate scenario for the output checks.
func runSmall(t *testing.T) engine.Result {
	t.Helper()
	shape := paperShape(3, 32, 0, 0)
	sc := serveScenario("check", shape, 7, 1, 0)
	sc.Cycles = 2000
	sc.Workloads = paperTraffic(shape, 7, 1, sc.Cycles)
	sc.Analyzer = core.AnalyzerConfig{Style: core.StyleGlobal}
	res := engine.RunOne(context.Background(), sc)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestFlippedEnergyBitFails(t *testing.T) {
	res := runSmall(t)
	want, err := resultBits(&res)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := resultBits(&res)
	if err := sameBits(got, want); err != nil {
		t.Fatalf("identical results mismatch: %v", err)
	}
	flipped := res
	rep := *res.Report
	rep.TotalEnergy = math.Float64frombits(math.Float64bits(rep.TotalEnergy) ^ 1)
	flipped.Report = &rep
	got, _ = resultBits(&flipped)
	if sameBits(got, want) == nil {
		t.Error("a flipped energy bit passed the check")
	}

	// The daemon-side check decodes the wire form; flip the same bit there.
	wire, err := json.Marshal(map[string]any{
		"cycles": res.Report.Cycles, "beats": res.Beats, "energy_J": res.Report.TotalEnergy,
		"block_energy_J": res.Report.BlockEnergy, "counts": res.Counts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFresh(wire, &res); err != nil {
		t.Fatalf("faithful wire result rejected: %v", err)
	}
	if checkFresh(wire, &flipped) == nil {
		t.Error("checkFresh accepted a result one energy bit off its reference")
	}
}

func TestChangedCachedByteFails(t *testing.T) {
	fresh := []byte(`{"name":"hot0","energy_J":1.25e-9}`)
	if err := checkHit(append([]byte(nil), fresh...), fresh); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	changed := append([]byte(nil), fresh...)
	changed[len(changed)-3] ^= 0x01
	if checkHit(changed, fresh) == nil {
		t.Error("a changed cached byte passed the check")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for stream := uint64(0); stream < 64; stream++ {
			s := deriveSeed(seed, stream)
			if s < 0 || seen[s] {
				t.Fatalf("deriveSeed(%d, %d) = %d repeats or is negative", seed, stream, s)
			}
			seen[s] = true
		}
	}
}

func TestServeMixShape(t *testing.T) {
	hot, reqs, err := serveMix(3, 500)
	if err != nil {
		t.Fatal(err)
	}
	fresh, traced := 0, 0
	for _, r := range reqs {
		if r.kind == kindFresh {
			fresh++
			if r.sc.Analyzer.TraceWindow > 0 {
				traced++
			}
			if r.sc.Topo == nil {
				t.Fatal("fresh scenario without a topology")
			}
		} else if r.hot >= len(hot) {
			t.Fatalf("hit on hot index %d of %d", r.hot, len(hot))
		}
		if strings.Contains(string(r.body), `"system"`) {
			t.Fatal("request uses the count-based system alias")
		}
	}
	if fresh != 500/serveFreshEvery || traced != fresh/serveTraceEvery {
		t.Errorf("%d fresh (%d traced) of 500", fresh, traced)
	}
}
