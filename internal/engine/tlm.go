package engine

import (
	"context"
	"fmt"
	"time"

	"ahbpower/internal/metrics"
	"ahbpower/internal/tlm"
)

// Accuracy classes a Scenario can request. Unlike backend hints, the
// accuracy class changes what is computed, so it is part of the result
// identity (CanonicalKey).
const (
	// AccuracyCycle is the exact cycle-accurate simulation; "" means the
	// same thing (the default).
	AccuracyCycle = "cycle"
	// AccuracyTransaction is the calibrated transaction-level estimate
	// (internal/tlm): approximate by contract, an order of magnitude
	// faster.
	AccuracyTransaction = "transaction"
)

// ValidAccuracy reports whether a scenario accuracy value is known. The
// empty string is valid and means AccuracyCycle.
func ValidAccuracy(a string) bool {
	switch a {
	case "", AccuracyCycle, AccuracyTransaction:
		return true
	}
	return false
}

// NormalizeAccuracy folds the empty default onto AccuracyCycle, so the
// two spellings of the exact class compare (and hash) equal.
func NormalizeAccuracy(a string) string {
	if a == "" {
		return AccuracyCycle
	}
	return a
}

// TLMTraits derives the transaction-level eligibility traits of the
// scenario (see tlm.Traits), the estimator's analog of ExecTraits.
func (sc *Scenario) TLMTraits() tlm.Traits {
	return tlm.Traits{
		HasFaults:        sc.Faults != nil,
		HasSetup:         sc.Setup != nil,
		KeepSystem:       sc.KeepSystem,
		SkipAnalyzer:     sc.SkipAnalyzer,
		HasDPM:           !sc.SkipAnalyzer && sc.Analyzer.DPM != nil,
		HasTraceWindow:   !sc.SkipAnalyzer && sc.Analyzer.TraceWindow > 0,
		RecordActivity:   !sc.SkipAnalyzer && sc.Analyzer.RecordActivity,
		HasTraceRecorder: !sc.SkipAnalyzer && sc.Analyzer.Trace != nil,
	}
}

// executeTLMAttempt runs one scenario through the transaction-level
// estimator. The caller has already checked eligibility via TLMTraits.
func executeTLMAttempt(ctx context.Context, index int, sc Scenario, attempt int, share *scriptShare) (res Result) {
	res = Result{
		Index:    index,
		Scenario: sc,
		Attempts: attempt + 1,
		Backend:  tlm.Name,
		Accuracy: AccuracyTransaction,
	}
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("engine: scenario %q panicked: %v", sc.Name, p)
		}
	}()
	if sc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, sc.Timeout)
		defer cancel()
	}
	buildStart := time.Now()
	spec := tlm.Spec{
		Name:      sc.Name,
		Topo:      sc.Topology(),
		Analyzer:  sc.Analyzer,
		Workloads: sc.Workloads,
		Cycles:    sc.Cycles,
	}
	prep, err := share.prepare(index, spec)
	var out *tlm.Outcome
	if err == nil {
		out, err = prep.Estimate(ctx)
	}
	if err != nil {
		res.Err = fmt.Errorf("engine: scenario %q: %w", sc.Name, err)
		return res
	}
	elapsed := time.Since(buildStart)
	res.RunDuration = elapsed
	// Only the calibration prefix actually turned the kernel over; the
	// rest of the horizon was estimated, which is the whole point — the
	// throughput figure reflects estimated cycles per wall-clock second.
	res.Metrics = metrics.NewRunMetrics(out.Cycles, 0, 0, elapsed)
	res.Report = out.Report
	res.Stats = out.Stats
	res.Beats = out.Beats
	res.Counts = out.Counts
	return res
}
