package main

import (
	"strings"
	"testing"
)

const baseOut = `goos: linux
goarch: amd64
pkg: ahbpower/internal/sim
BenchmarkKernel/events-8         	 4000000	       291.0 ns/op	      24 B/op	       1 allocs/op
BenchmarkKernel/events-8         	 4100000	       289.0 ns/op	      24 B/op	       1 allocs/op
BenchmarkKernel/events-8         	 3900000	       295.0 ns/op	      24 B/op	       1 allocs/op
BenchmarkKernel/clock-fanout-16-8	 1000000	      1474 ns/op
BenchmarkOldOnly-8               	 1000000	      1000 ns/op
PASS
`

const headOut = `goos: linux
goarch: amd64
pkg: ahbpower/internal/sim
BenchmarkKernel/events-8         	17000000	        70.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernel/events-8         	17100000	        71.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernel/events-8         	16900000	        69.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkKernel/clock-fanout-16-8	 5000000	       247 ns/op
BenchmarkNewOnly-8               	 1000000	       500 ns/op
PASS
`

func mustParse(t *testing.T, s string) map[string][]float64 {
	t.Helper()
	m, errored, err := parse(strings.NewReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if errored {
		t.Fatalf("fixture unexpectedly carries failure markers:\n%s", s)
	}
	return m
}

func TestParseCollectsSamplesPerName(t *testing.T) {
	m := mustParse(t, baseOut)
	if got := len(m["BenchmarkKernel/events"]); got != 3 {
		t.Errorf("events samples = %d, want 3 (repeated -count runs collected)", got)
	}
	if got := m["BenchmarkKernel/clock-fanout-16"]; len(got) != 1 || got[0] != 1474 {
		t.Errorf("clock-fanout sample = %v, want [1474]", got)
	}
	if _, ok := m["BenchmarkKernel/events-8"]; ok {
		t.Error("CPU suffix must be trimmed from benchmark names")
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkKernel/events-8":      "BenchmarkKernel/events",
		"BenchmarkKernel/delta-chain-2": "BenchmarkKernel/delta-chain",
		"BenchmarkPlain":                "BenchmarkPlain",
		"BenchmarkKernel/fanout-abc":    "BenchmarkKernel/fanout-abc",
	} {
		if got := trimCPUSuffix(in); got != want {
			t.Errorf("trimCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestMedianResistsOutliers(t *testing.T) {
	if got := median([]float64{70, 71, 5000}); got != 71 {
		t.Errorf("median = %v, want 71 (one noisy run must not dominate)", got)
	}
	if got := median([]float64{10, 20}); got != 15 {
		t.Errorf("even median = %v, want 15", got)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	report, failed := compare(mustParse(t, baseOut), mustParse(t, headOut), 10)
	if failed {
		t.Fatalf("improvement flagged as regression:\n%s", report)
	}
	for _, want := range []string{"new", "gone", "ok:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report lacks %q:\n%s", want, report)
		}
	}
}

func TestCompareRegressionFails(t *testing.T) {
	// Head slower than base by far more than 10%: swap the fixtures.
	report, failed := compare(mustParse(t, headOut), mustParse(t, baseOut), 10)
	if !failed {
		t.Fatalf("4x slowdown not flagged:\n%s", report)
	}
	if !strings.Contains(report, "REGRESSION") {
		t.Errorf("report lacks REGRESSION marker:\n%s", report)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := map[string][]float64{"BenchmarkX": {100}}
	head := map[string][]float64{"BenchmarkX": {109}}
	if report, failed := compare(base, head, 10); failed {
		t.Fatalf("9%% slowdown must pass a 10%% gate:\n%s", report)
	}
	head["BenchmarkX"] = []float64{111}
	if report, failed := compare(base, head, 10); !failed {
		t.Fatalf("11%% slowdown must fail a 10%% gate:\n%s", report)
	}
}

func TestCompareNoSharedBenchmarksPasses(t *testing.T) {
	base := map[string][]float64{"BenchmarkOld": {100}}
	head := map[string][]float64{"BenchmarkNew": {100}}
	report, failed := compare(base, head, 10)
	if failed {
		t.Fatal("disjoint benchmark sets must not gate")
	}
	if !strings.Contains(report, "nothing to gate") {
		t.Errorf("report must say nothing was gated:\n%s", report)
	}
}

func TestParseDetectsSuiteFailure(t *testing.T) {
	for name, out := range map[string]string{
		"fail line": "BenchmarkKernel/events-8 100 70.0 ns/op\nFAIL\tahbpower/internal/sim\t1.2s\n",
		"test fail": "--- FAIL: TestSomething (0.00s)\nFAIL\n",
		"panic":     "panic: runtime error: index out of range\n",
	} {
		_, errored, err := parse(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !errored {
			t.Errorf("%s: failure marker not detected", name)
		}
	}
	if _, errored, _ := parse(strings.NewReader(headOut)); errored {
		t.Error("clean output flagged as errored")
	}
}

func TestHeadSuiteErrorDistinguishesRemovedFromErrored(t *testing.T) {
	base := map[string][]float64{"BenchmarkOld": {100}}
	// Benchmark removed, head otherwise healthy: informational only.
	if msg, errored := headSuiteError(base, map[string][]float64{"BenchmarkNew": {50}}, false); errored {
		t.Errorf("healthy head with a removed benchmark must not gate: %s", msg)
	}
	// Failure markers in the head output: gate.
	if _, errored := headSuiteError(base, map[string][]float64{"BenchmarkNew": {50}}, true); !errored {
		t.Error("head with FAIL markers must gate")
	}
	// Head produced nothing at all while base had benchmarks: gate.
	if _, errored := headSuiteError(base, map[string][]float64{}, false); !errored {
		t.Error("empty head against a non-empty base must gate")
	}
	// Both sides empty (base predates the suite): vacuous pass.
	if _, errored := headSuiteError(map[string][]float64{}, map[string][]float64{}, false); errored {
		t.Error("empty-vs-empty must not gate")
	}
}

func TestSpeedupFlagParsing(t *testing.T) {
	var f speedupFlag
	if err := f.Set("tlm:10x,compiled:1.5x"); err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 || f[0] != (speedupReq{"tlm", 10}) || f[1] != (speedupReq{"compiled", 1.5}) {
		t.Errorf("parsed %+v", f)
	}
	for _, bad := range []string{"tlm", "tlm:10", ":10x", "tlm:0x", "tlm:-2x"} {
		var g speedupFlag
		if err := g.Set(bad); err == nil {
			t.Errorf("Set(%q) accepted", bad)
		}
	}
}

func TestCheckSpeedupsPairsSiblings(t *testing.T) {
	head := map[string][]float64{
		"BenchmarkTLMSweep/tlm/sweep":      {100, 110, 105},
		"BenchmarkTLMSweep/compiled/sweep": {300, 330, 315},
		"BenchmarkTLMBare/tlm/bare":        {80},
	}
	// 3x measured: a 2x requirement passes, a 10x requirement fails.
	report, failed := checkSpeedups(head, []speedupReq{{"tlm", 2}})
	if failed {
		t.Fatalf("3x speedup must satisfy a 2x floor:\n%s", report)
	}
	if !strings.Contains(report, "3.00x") {
		t.Errorf("report lacks measured ratio:\n%s", report)
	}
	report, failed = checkSpeedups(head, []speedupReq{{"tlm", 10}})
	if !failed || !strings.Contains(report, "FAIL") {
		t.Errorf("3x speedup must fail a 10x floor:\n%s", report)
	}
}

func TestCheckSpeedupsFailsWithoutPair(t *testing.T) {
	// No sibling differing only in the labeled segment: the assertion must
	// fail rather than pass vacuously.
	head := map[string][]float64{"BenchmarkTLMBare/tlm/bare": {80}}
	if report, failed := checkSpeedups(head, []speedupReq{{"tlm", 2}}); !failed {
		t.Fatalf("missing pair must fail the assertion:\n%s", report)
	}
	if report, failed := checkSpeedups(map[string][]float64{}, []speedupReq{{"tlm", 2}}); !failed {
		t.Fatalf("empty head must fail the assertion:\n%s", report)
	}
}
