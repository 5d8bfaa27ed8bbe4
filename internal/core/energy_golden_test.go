package core_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/charact"
	"ahbpower/internal/core"
	"ahbpower/internal/engine"
	"ahbpower/internal/sim"
	"ahbpower/internal/topo"
	"ahbpower/internal/workload"
)

// energyGoldens pins the exact energies of a fixed set of runs as IEEE-754
// bit patterns: the total, each block's energy and each instruction's
// accumulated energy. Any change to the macromodels, the analyzer's
// per-cycle arithmetic or its accumulation order shows up here as a bit
// difference, not as a tolerance question. The values were recorded
// before the macromodels were evaluated in closed form, so they are
// independent of the code they check.
var energyGoldens = map[string]map[string]uint64{
	"paper-global": {
		"block/ARB":             0x3e2cbbf70aad771c,
		"block/DEC":             0x3de20a0884fb8666,
		"block/M2S":             0x3e5b8d83eac1b732,
		"block/S2M":             0x3e5289afc3a67b8a,
		"dpm/gross_saved":       0x3df01ad42732e1ff,
		"dpm/wake_cost":         0x3dac965971ea9c5b,
		"instr/IDLE_HO_IDLE_HO": 0x3e317c0bc685094f,
		"instr/IDLE_HO_WRITE":   0x3e0f63dc0b1d524b,
		"instr/IDLE_IDLE":       0x3d884f581c404abf,
		"instr/IDLE_WRITE":      0x3db343fb65eb85f7,
		"instr/READ_IDLE_HO":    0x3e14caff6bbd22d3,
		"instr/READ_WRITE":      0x3e573c66d4b7e248,
		"instr/WRITE_READ":      0x3e53e9fa89bf9a37,
		"total":                 0x3e68e9635063ebf4,
	},
	"paper-local": {
		"block/ARB":             0x3e2cbbf70aad771c,
		"block/DEC":             0x3de20a0884fb8666,
		"block/M2S":             0x3e5b0847e7bdd663,
		"block/S2M":             0x3e5289afc3a67b8a,
		"instr/IDLE_HO_IDLE_HO": 0x3e317c0bc685094f,
		"instr/IDLE_HO_WRITE":   0x3e11ea0442c8b65f,
		"instr/IDLE_IDLE":       0x3d884f581c404abf,
		"instr/IDLE_WRITE":      0x3db5a3f7cd1e8591,
		"instr/READ_IDLE_HO":    0x3e14caff6bbd22d3,
		"instr/READ_WRITE":      0x3e56be2c60b13ef1,
		"instr/WRITE_READ":      0x3e53bedf97d4efac,
		"total":                 0x3e68a6c54ee1fbf0,
	},
	"paper-private": {
		"block/ARB":             0x3e2cc6902dd39770,
		"block/DEC":             0x3de295ae17e2d6b4,
		"block/M2S":             0x3e5c3b9949816afa,
		"block/S2M":             0x3e52cdf75c3d75bd,
		"instr/IDLE_HO_IDLE_HO": 0x3e3207748cfba151,
		"instr/IDLE_HO_WRITE":   0x3e129c9ccde617dd,
		"instr/IDLE_IDLE":       0x3da1d55dd2b2ea4d,
		"instr/IDLE_WRITE":      0x3db61d90ae8f1f16,
		"instr/READ_IDLE_HO":    0x3e14d2a82cf05a80,
		"instr/READ_WRITE":      0x3e573c8ebae1db39,
		"instr/WRITE_READ":      0x3e548a6bc9f4f43e,
		"total":                 0x3e6963c703d48c4a,
	},
	"paper-characterized": {
		"block/ARB":             0x3e2cbbf70aad771c,
		"block/DEC":             0x3dd34386aa31d20c,
		"block/M2S":             0x3e626e737673caae,
		"block/S2M":             0x3e58c2d17c592bd4,
		"instr/IDLE_HO_IDLE_HO": 0x3e31a1818e848d03,
		"instr/IDLE_HO_WRITE":   0x3e112a214943dcaf,
		"instr/IDLE_IDLE":       0x3d884f581c404abf,
		"instr/IDLE_WRITE":      0x3db4126f299d79d8,
		"instr/READ_IDLE_HO":    0x3e18da424f661e62,
		"instr/READ_WRITE":      0x3e5f41de316e809f,
		"instr/WRITE_READ":      0x3e5afa2eec1b147f,
		"total":                 0x3e70529eb450287c,
	},
	"s8-rr": {
		"block/ARB":             0x3e42d1eba82bd923,
		"block/DEC":             0x3e4a5c29c1eb6cf0,
		"block/M2S":             0x3e6b035e79eebe70,
		"block/S2M":             0x3e64327b137ecaa3,
		"instr/IDLE_HO_IDLE_HO": 0x3e41fecfc92d824c,
		"instr/IDLE_HO_READ":    0x3e04c88ac36d0d55,
		"instr/IDLE_HO_WRITE":   0x3e1711559362620b,
		"instr/IDLE_IDLE":       0x3d884f581c404abf,
		"instr/IDLE_WRITE":      0x3db1a74fc26efcf5,
		"instr/READ_IDLE_HO":    0x3e13af0994adf652,
		"instr/READ_READ":       0x3e56fdbdb10efd99,
		"instr/READ_WRITE":      0x3e558ae2e64e3de6,
		"instr/WRITE_IDLE_HO":   0x3e0a0fc45e950b4a,
		"instr/WRITE_READ":      0x3e5cdab226e328ff,
		"instr/WRITE_WRITE":     0x3e5e780e72ccfa4c,
		"total":                 0x3e7d40af73f9abf3,
	},
	"s8-rr-transaction": {
		"block/ARB":             0x3e724adea1c61d94,
		"block/DEC":             0x3e743a412724fd35,
		"block/M2S":             0x3e9a834dc1945b62,
		"block/S2M":             0x3e92714e03a0f52a,
		"instr/IDLE_HO_IDLE_HO": 0x3e30aee2ad610c0c,
		"instr/IDLE_HO_WRITE":   0x3e4c1428361408ff,
		"instr/IDLE_IDLE":       0x3d76c5faf2b9dd29,
		"instr/IDLE_WRITE":      0x3dc20f89c8bbd77a,
		"instr/READ_IDLE_HO":    0x3e721d0bbcfc574e,
		"instr/READ_READ":       0x3e87d315f54de100,
		"instr/READ_WRITE":      0x3e88936076e9c2ae,
		"instr/WRITE_READ":      0x3e87d315f54de100,
		"instr/WRITE_WRITE":     0x3e899bcf3a76301f,
		"total":                 0x3eab4af1dbb80ba0,
	},
}

// goldenScenarios are the pinned runs: the paper testbench under each
// instrumentation style (global with a DPM estimate), the paper testbench priced with gate-level
// characterized models, one 8-slave round-robin design-space point, and
// one transaction-accuracy estimate.
func goldenScenarios(t *testing.T) []engine.Scenario {
	t.Helper()
	const cycles = 2500
	var out []engine.Scenario
	for _, st := range []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate} {
		out = append(out, engine.Scenario{
			Name:     "paper-" + st.String(),
			System:   core.PaperSystem(),
			Analyzer: core.AnalyzerConfig{Style: st},
			Cycles:   cycles,
		})
	}
	// The global run also carries the DPM what-if estimate, which prices
	// gated cycles with the muxes' clock energy.
	out[0].Analyzer.DPM = &core.DPMConfig{IdleThreshold: 4, WakeEnergy: 1e-12}
	models, err := charact.Characterize(charact.Config{NumMasters: 3, NumSlaves: 3, Vectors: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, engine.Scenario{
		Name:     "paper-characterized",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal, Models: models},
		Cycles:   cycles,
	})
	grid := func(name string, cycles uint64, accuracy string) engine.Scenario {
		tp := topo.Canonicalize(topo.Counts{
			Masters: 2, DefaultMaster: true, Slaves: 8, SlaveWaits: 1,
			ClockPeriod: 10 * sim.Nanosecond, DataWidth: 32, Policy: ahb.PolicyRoundRobin,
		})
		base, size := tp.AddrSpan()
		var wl []workload.Config
		for m := 0; m < tp.ActiveMasters(); m++ {
			cfg := workload.PaperTestbench(m, int(cycles)/100+2)
			cfg.AddrBase, cfg.AddrSize = base, size
			wl = append(wl, cfg)
		}
		return engine.Scenario{
			Name:      name,
			Topo:      &tp,
			Analyzer:  core.AnalyzerConfig{Style: core.StyleGlobal},
			Workloads: wl,
			Cycles:    cycles,
			Accuracy:  accuracy,
		}
	}
	out = append(out, grid("s8-rr", 5000, ""), grid("s8-rr-transaction", 40000, "transaction"))
	return out
}

// energyBits flattens a result's energies into labelled bit patterns.
func energyBits(r *engine.Result) map[string]uint64 {
	got := map[string]uint64{"total": math.Float64bits(r.Report.TotalEnergy)}
	for name, e := range r.Report.BlockEnergy {
		got["block/"+name] = math.Float64bits(e)
	}
	for _, s := range r.Stats {
		got["instr/"+s.Instruction.String()] = math.Float64bits(s.Energy)
	}
	if r.DPM != nil {
		got["dpm/gross_saved"] = math.Float64bits(r.DPM.GrossSaved)
		got["dpm/wake_cost"] = math.Float64bits(r.DPM.WakeCost)
	}
	return got
}

// TestEnergyGoldens requires every pinned energy to be bit-identical to
// the recorded value. On a mismatch it prints the run's full table in Go
// syntax, so a deliberate model change can re-record it.
func TestEnergyGoldens(t *testing.T) {
	scens := goldenScenarios(t)
	results := engine.NewRunner(2).Run(context.Background(), scens)
	if err := engine.FirstError(results); err != nil {
		t.Fatal(err)
	}
	for i := range results {
		r := &results[i]
		name := scens[i].Name
		if r.BackendFallback != "" && scens[i].Accuracy != "" {
			t.Errorf("%s: fell back from %s accuracy: %s", name, scens[i].Accuracy, r.BackendFallback)
		}
		got := energyBits(r)
		want := energyGoldens[name]
		mismatch := len(got) != len(want)
		for k, w := range want {
			if g, ok := got[k]; !ok || g != w {
				mismatch = true
				t.Errorf("%s %s: got %#x (%.17g J), want %#x (%.17g J)",
					name, k, g, math.Float64frombits(g), w, math.Float64frombits(w))
			}
		}
		if mismatch {
			t.Errorf("%s: energies differ from the golden table; this run records:\n%s", name, goldenLiteral(name, got))
		}
	}
}

func goldenLiteral(name string, got map[string]uint64) string {
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := fmt.Sprintf("\t%q: {\n", name)
	for _, k := range keys {
		s += fmt.Sprintf("\t\t%q: %#x,\n", k, got[k])
	}
	return s + "\t},\n"
}
