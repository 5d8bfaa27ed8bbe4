package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// childResult is the final JSON line of one child run.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repeatMode runs each selected workload o.repeat times (at least once),
// each in its own child process with seeds o.seed, o.seed+1, ..., and
// prints every metric's median, quartiles and spread (interquartile range
// over median) — the figures the bounds in BENCHMARK.json are chosen
// from.
func repeatMode(o options) error {
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloads
	}
	n := max(o.repeat, 1)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sum := &report{}
	for _, w := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for k := 0; k < n; k++ {
			seed := o.seed + int64(k)
			trace := "0"
			if o.trace {
				trace = "1"
			}
			args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", trace}
			res, err := runChild(self, args, n == 1)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			sum.Attempted += res.Attempted
			sum.Failed += res.Failed
			if !res.Correct {
				sum.fail("%s seed %d: wrong outputs", w, seed)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d, %d s each\n", w, n, o.seed, o.seed+int64(n)-1, o.seconds)
		fmt.Printf("  %-34s %14s %14s %14s %8s\n", "metric", "median", "q1", "q3", "spread")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, name := range keys {
			v := values[name]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("  %-34s %14.6g %14.6g %14.6g %7.1f%% %s\n", name, med, q1, q3, 100*spread, units[name])
			sum.add(w+"."+name, units[name], med)
		}
	}
	line, err := sum.finalLine()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// runChild runs one child invocation to completion and parses its final
// JSON line. The child's text report is passed through to stdout when
// show is set (a single run per workload), else to stderr.
func runChild(self string, args []string, show bool) (*childResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	text := out.Bytes()
	if i := bytes.LastIndexByte(bytes.TrimSpace(text), '\n'); show && i >= 0 {
		os.Stdout.Write(text[:i+1])
	} else if !show {
		os.Stderr.Write(text)
	}
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}
