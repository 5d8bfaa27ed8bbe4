package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// nonuniformJSON is a copy of examples/topologies/nonuniform.json (8K/2K/2K
// map, 0/2/4 waits), kept here so the benchmark does not break when the
// examples change.
//
//go:embed nonuniform.json
var nonuniformJSON []byte

// Sizes of the workloads. They are constants, not flags: two commits are
// only comparable when both run the same work.
const (
	// sweepCycles is the horizon of every sweep grid point: long enough
	// that the kernel and analyzer dominate a point's host time, short
	// enough that a 20 s run completes a few thousand points, which the
	// p99 tail needs.
	sweepCycles = 20_000
	// estimateCycles is the transaction-level horizon, five times the
	// sweep one, so the calibration prefix (cycles/16) is a small share of
	// the work.
	estimateCycles = 100_000
	// serveCycles is the horizon of every daemon request.
	serveCycles = 20_000
)

// Axes of the 54-point design-space grid (the ahbsweep defaults).
var (
	gridSlaves   = []int{2, 3, 8}
	gridWidths   = []int{16, 32}
	gridWaits    = []int{0, 1, 2}
	gridPolicies = []ahb.ArbPolicy{ahb.PolicySticky, ahb.PolicyFixed, ahb.PolicyRoundRobin}
)

// deriveSeed mixes the run seed with a stream number (splitmix64), so each
// master and each fresh request gets its own independent traffic.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) & (1<<62 - 1))
}

// paperTraffic returns the per-master traffic of a topology: the paper
// testbench sized to cycles, spread over the topology's mapped span, with
// seeds derived from seed and stream.
func paperTraffic(t topo.Topology, seed int64, stream uint64, cycles uint64) []workload.Config {
	base, size := t.AddrSpan()
	var cfgs []workload.Config
	for m := 0; m < t.ActiveMasters(); m++ {
		cfg := workload.PaperTestbench(m, int(cycles)/100+2)
		cfg.Seed = deriveSeed(seed, stream*16+uint64(m))
		cfg.AddrBase, cfg.AddrSize = base, size
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// paperShape is the paper's bus with the given axes: two masters plus the
// default master and ns equal 4 KB slaves at 100 MHz.
func paperShape(ns, width, waits int, pol ahb.ArbPolicy) topo.Topology {
	return topo.Canonicalize(topo.Counts{
		Masters: 2, DefaultMaster: true, Slaves: ns, SlaveWaits: waits,
		ClockPeriod: 10 * sim.Nanosecond, DataWidth: width, Policy: pol,
	})
}

// gridScenarios expands the 54-point grid in topology form. Every point
// carries the same traffic, as in the paper's exploration: only the
// architecture changes between points.
func gridScenarios(seed int64, cycles uint64, accuracy string) []engine.Scenario {
	var out []engine.Scenario
	for _, ns := range gridSlaves {
		for _, dw := range gridWidths {
			for _, ws := range gridWaits {
				for _, pol := range gridPolicies {
					t := paperShape(ns, dw, ws, pol)
					out = append(out, engine.Scenario{
						Name:      fmt.Sprintf("s%d_w%d_ws%d_%s", ns, dw, ws, pol),
						Topo:      &t,
						Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal},
						Workloads: paperTraffic(t, seed, 0, cycles),
						Cycles:    cycles,
						Backend:   "auto",
						Accuracy:  accuracy,
					})
				}
			}
		}
	}
	return out
}

// nonuniformShape decodes the embedded non-uniform topology.
func nonuniformShape() (topo.Topology, error) {
	var t topo.Topology
	if err := json.Unmarshal(nonuniformJSON, &t); err != nil {
		return t, fmt.Errorf("nonuniform topology: %w", err)
	}
	return t.Canonical(), nil
}
