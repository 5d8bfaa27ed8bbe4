package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ahbpower/internal/engine"
)

// resultBits flattens everything a run computes into one vector of exact
// bit patterns: total energy, per-block energies, per-instruction counts
// and energies, beats and monitor counters. Two runs agree only when the
// vectors are equal, so a single flipped energy bit is a mismatch.
func resultBits(r *engine.Result) ([]uint64, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	if len(r.Violations) > 0 {
		return nil, fmt.Errorf("%d protocol violations (first: %v)", len(r.Violations), r.Violations[0])
	}
	if r.Report == nil {
		return nil, fmt.Errorf("no report")
	}
	v := []uint64{math.Float64bits(r.Report.TotalEnergy), r.Report.Cycles, r.Beats}
	v = append(v, mapBits(r.Report.BlockEnergy)...)
	for _, st := range r.Stats {
		v = append(v, st.Count, math.Float64bits(st.Energy))
	}
	keys := make([]string, 0, len(r.Counts))
	for k := range r.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v = append(v, r.Counts[k])
	}
	return v, nil
}

func mapBits(m map[string]float64) []uint64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]uint64, 0, len(keys))
	for _, k := range keys {
		out = append(out, math.Float64bits(m[k]))
	}
	return out
}

// sameBits reports whether a result vector matches its reference.
func sameBits(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d fields, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("field %d is %#x, reference %#x", i, got[i], want[i])
		}
	}
	return nil
}

// checkHit verifies that a cache hit returned exactly the bytes of the
// fresh response that filled the cache.
func checkHit(got, fresh []byte) error {
	if !bytes.Equal(got, fresh) {
		return fmt.Errorf("cached result differs from its fresh response (%d vs %d bytes)", len(got), len(fresh))
	}
	return nil
}

// wireResult is the part of the daemon's per-scenario result the
// benchmark checks against a direct engine run.
type wireResult struct {
	Error       string             `json:"error"`
	Cycles      uint64             `json:"cycles"`
	Beats       uint64             `json:"beats"`
	TotalEnergy float64            `json:"energy_J"`
	BlockEnergy map[string]float64 `json:"block_energy_J"`
	Counts      map[string]uint64  `json:"counts"`
	Violations  []string           `json:"violations"`
}

// checkFresh verifies a freshly computed daemon result against the same
// scenario run directly on the engine: energies must be bit-identical
// (JSON float encoding round-trips exactly).
func checkFresh(raw []byte, ref *engine.Result) error {
	var w wireResult
	if err := json.Unmarshal(raw, &w); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	if w.Error != "" {
		return fmt.Errorf("result error: %s", w.Error)
	}
	if len(w.Violations) > 0 {
		return fmt.Errorf("%d protocol violations", len(w.Violations))
	}
	if ref.Err != nil || ref.Report == nil {
		return fmt.Errorf("reference run failed: %v", ref.Err)
	}
	got := append([]uint64{math.Float64bits(w.TotalEnergy), w.Cycles, w.Beats}, mapBits(w.BlockEnergy)...)
	want := append([]uint64{math.Float64bits(ref.Report.TotalEnergy), ref.Report.Cycles, ref.Beats}, mapBits(ref.Report.BlockEnergy)...)
	for k, n := range ref.Counts {
		if w.Counts[k] != n {
			return fmt.Errorf("counter %s is %d, reference %d", k, w.Counts[k], n)
		}
	}
	return sameBits(got, want)
}
