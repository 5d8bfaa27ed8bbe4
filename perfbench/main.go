// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time and prints every end-to-end metric; a traced
// run (-trace 1) replays the workload's scenarios through each layer's
// public calls and prints the per-layer metrics instead. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"name": {"value": 1.2, "unit": "ms"}}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --repeat 5
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workloads are the benchmark's named workloads, in run order. The daemon
// traffic is not one of them: it runs, checked, in every traced run.
var workloads = []string{"sweep", "estimate"}

// endToEnd lists the end-to-end metrics every untraced run prints, in
// print order, with their units. The timings among them are scaled to a
// nominal host (see hostspeed.go).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"norm_cycles_per_s", "1/s"},
	{"norm_op_p50_ms", "ms"},
	{"allocs_per_kcycle", "count"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

// metric is one named measurement.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run. Metrics go into the final JSON line;
// Details are workload-specific figures printed only as text.
type report struct {
	Attempted int
	Failed    int
	Problems  []string
	Metrics   []metric
	Details   []metric
	Notes     []string
	// selfByLayer is the traced run's self time per layer.
	selfByLayer map[string]time.Duration
}

func (r *report) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

func (r *report) detail(name, unit string, v float64) {
	r.Details = append(r.Details, metric{Name: name, Value: v, Unit: unit})
}

// addSetup records the set-up time, normalized as the gated metric and
// raw as a detail.
func (r *report) addSetup(norm, raw float64) {
	r.add("setup_s", "s", norm)
	r.detail("raw_setup_s", "s", raw)
}

// fail records a wrong output; the run's correct flag goes false.
func (r *report) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// validName is the metric-name rule: a letter or digit, then up to 63
// letters, digits, '_', '.' or '-'.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// finalLine renders the last output line, refusing metric names outside
// the charset and duplicated names.
func (r *report) finalLine() (string, error) {
	m := make(map[string]metric, len(r.Metrics))
	for _, x := range r.Metrics {
		if !validName.MatchString(x.Name) {
			return "", fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", x.Name)
		}
		if _, dup := m[x.Name]; dup {
			return "", fmt.Errorf("metric %q reported twice", x.Name)
		}
		m[x.Name] = x
	}
	attempted := max(r.Attempted, 1)
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.Problems) == 0 && r.Failed == 0, attempted, r.Failed, m})
	return string(b), err
}

// checkNames verifies that a run reported exactly the metric set of its
// kind, in order: every end-to-end metric untraced, every per-layer
// metric traced.
func (r *report) checkNames(traced bool) error {
	var want []string
	if traced {
		for _, m := range perLayer {
			want = append(want, m.name)
		}
	} else {
		for _, m := range endToEnd {
			want = append(want, m.name)
		}
	}
	var got []string
	for _, m := range r.Metrics {
		got = append(got, m.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("reported metrics %v, want %v", got, want)
	}
	return nil
}

func (r *report) printText(title string) {
	fmt.Printf("== %s\n", title)
	if r.selfByLayer != nil {
		r.printLayers()
	} else {
		for _, x := range r.Metrics {
			fmt.Printf("  %-34s %14.6g %s\n", x.Name, x.Value, x.Unit)
		}
	}
	for _, x := range r.Details {
		fmt.Printf("  %-34s %14.6g %s   (detail)\n", x.Name, x.Value, x.Unit)
	}
	errRate := 0.0
	if r.Attempted > 0 {
		errRate = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-34s %14.6g ratio (%d failed of %d attempted)\n", "error_rate", errRate, r.Failed, r.Attempted)
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	for i, p := range r.Problems {
		if i == 20 {
			fmt.Printf("  WRONG: ... %d more\n", len(r.Problems)-i)
			break
		}
		fmt.Printf("  WRONG: %s\n", p)
	}
}

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	repeat   int
}

// spanDir is where traced runs write their spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

func main() {
	var o options
	var trace, reference int
	flag.StringVar(&o.workload, "workload", "", "workload: sweep, estimate, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload inputs are derived from")
	flag.IntVar(&o.seconds, "seconds", 10, "measured time per run, seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run each workload this many times (seeds seed, seed+1, ...) in child processes and print per-metric median, quartiles and spread")
	flag.IntVar(&reference, "reference", 0, "run as the host-speed reference process on this many goroutines (started by the benchmark itself)")
	flag.Parse()
	if reference > 0 {
		if err := serveReference(os.Stdin, os.Stdout, reference); err != nil {
			fatalf("reference: %v", err)
		}
		return
	}
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds < 1 {
		fatalf("usage: perfbench --workload <sweep|estimate|all> --seed <n> --seconds <n> --trace <0|1> [--repeat <n>]")
	}
	if o.repeat > 0 || o.workload == "all" {
		if err := repeatMode(o); err != nil {
			fatalf("%v", err)
		}
		return
	}
	rep, err := runOne(o)
	if err == nil {
		err = rep.checkNames(o.trace)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	rep.printText(fmt.Sprintf("%s (%s, seed %d, %d s, GOMAXPROCS %d)", o.workload, mode, o.seed, o.seconds, runtime.GOMAXPROCS(0)))
	line, err := rep.finalLine()
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(line)
}

// runOne runs one workload once, untraced or traced.
func runOne(o options) (*report, error) {
	var run func(options) (*report, error)
	switch o.workload {
	case "sweep":
		run = runSweep
	case "estimate":
		run = runEstimate
	default:
		return nil, fmt.Errorf("unknown workload %q (want sweep, estimate or all)", o.workload)
	}
	if o.trace {
		run = runTraced
	}
	return run(o)
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime returns the process's user plus system CPU time. Unlike wall
// time it excludes the time a virtual CPU was descheduled by its host
// (steal).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// setupRuns is how many times a run sets up; setup_s is the median.
const setupRuns = 5

// setupProbes is how many reference timings follow each set-up.
const setupProbes = 3

// timedSetup runs setup n times and returns the median wall time in
// seconds, scaled to the nominal host by reference timings taken between
// the set-ups, and the raw median; the state of the last run is what the
// caller keeps.
func timedSetup(n int, setup func() error) (norm, raw float64, err error) {
	host, err := startHostSpeed(runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := host.close(); err == nil {
			err = cerr
		}
	}()
	var ds []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, 0, fmt.Errorf("set-up: %w", err)
		}
		ds = append(ds, time.Since(start).Seconds())
		for k := 0; k < setupProbes; k++ {
			if err := host.probe(); err != nil {
				return 0, 0, err
			}
		}
	}
	raw = median(ds)
	return host.time(raw), raw, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
