package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"ahbpower/internal/core"
	"ahbpower/internal/exec"
	"ahbpower/internal/fault"
)

// ckptFP is the bit-exact fingerprint of a Result used by the resume
// golden suite; wall-clock fields are deliberately excluded.
type ckptFP struct {
	totalBits  uint64
	stats      string
	counts     map[string]uint64
	beats      uint64
	violations int
	faults     *fault.Stats
}

func resultFP(t *testing.T, res Result) ckptFP {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("scenario %q failed: %v", res.Scenario.Name, res.Err)
	}
	return ckptFP{
		totalBits:  math.Float64bits(res.Report.TotalEnergy),
		stats:      fmt.Sprintf("%+v", res.Stats),
		counts:     res.Counts,
		beats:      res.Beats,
		violations: len(res.Violations),
		faults:     res.Faults,
	}
}

// errCrash is the sentinel a Save hook returns to emulate a crash right
// after a checkpoint was persisted.
var errCrash = errors.New("simulated crash after checkpoint")

// TestCheckpointResumeEquivalence is the engine-level golden suite: a
// scenario "crashed" right after its first checkpoint and resumed from
// that snapshot must produce a Result Float64bits-identical to the
// uninterrupted run, for every eligible backend, analyzer style and
// fault-plan combination.
func TestCheckpointResumeEquivalence(t *testing.T) {
	type combo struct {
		backend string
		style   core.Style
		faults  *fault.Plan
	}
	var combos []combo
	for _, be := range []string{exec.NameEvent, exec.NameCompiled, exec.NameAuto} {
		for _, style := range []core.Style{core.StyleGlobal, core.StyleLocal, core.StylePrivate} {
			for _, plan := range []*fault.Plan{nil, fault.RandomPlan(11)} {
				combos = append(combos, combo{be, style, plan})
			}
		}
	}
	for _, c := range combos {
		pi := 0
		if c.faults != nil {
			pi = 1
		}
		t.Run(fmt.Sprintf("%s/%s/plan%d", c.backend, c.style, pi), func(t *testing.T) {
			base := Scenario{
				Name:     "ckpt-golden",
				System:   core.PaperSystem(),
				Analyzer: core.AnalyzerConfig{Style: c.style},
				Cycles:   2600,
				Backend:  c.backend,
				Faults:   c.faults,
			}
			control := RunOne(context.Background(), base)
			want := resultFP(t, control)

			// "Crash" after the first persisted checkpoint.
			var blob []byte
			var at uint64
			crashed := base
			crashed.Checkpoint = &CheckpointConfig{Every: 512, Save: func(cycle uint64, snapshot []byte) error {
				blob, at = snapshot, cycle
				return errCrash
			}}
			res := RunOne(context.Background(), crashed)
			if res.Err == nil || !errors.Is(res.Err, errCrash) {
				t.Fatalf("crashed run: err = %v, want %v", res.Err, errCrash)
			}
			if len(blob) == 0 || at == 0 || at >= base.Cycles {
				t.Fatalf("no usable checkpoint captured (cycle %d, %d bytes)", at, len(blob))
			}

			resumed := base
			resumed.Checkpoint = &CheckpointConfig{Resume: blob}
			got := RunOne(context.Background(), resumed)
			if got.ResumedFrom != at {
				t.Errorf("ResumedFrom = %d, want %d", got.ResumedFrom, at)
			}
			if fp := resultFP(t, got); !reflect.DeepEqual(fp, want) {
				t.Errorf("resumed result diverged:\n got %+v\nwant %+v", fp, want)
			}
			// The checkpoint option must never change the cache identity.
			ck, ok1 := base.CanonicalKey()
			rk, ok2 := resumed.CanonicalKey()
			if !ok1 || !ok2 || ck != rk {
				t.Errorf("CanonicalKey differs under Checkpoint: %q (ok=%v) vs %q (ok=%v)", ck, ok1, rk, ok2)
			}
		})
	}
}

// TestCheckpointFallbacks verifies the surfaced-reason contract for every
// route that cannot checkpoint: ineligible analyzers run without
// snapshots, and the TLM estimator falls back to a cycle-accurate
// backend.
func TestCheckpointFallbacks(t *testing.T) {
	base := Scenario{
		Name:     "ckpt-fallback",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   600,
	}
	noopSave := func(uint64, []byte) error { return nil }

	t.Run("dpm-ineligible", func(t *testing.T) {
		sc := base
		sc.Analyzer.DPM = &core.DPMConfig{IdleThreshold: 8}
		sc.Checkpoint = &CheckpointConfig{Save: func(uint64, []byte) error {
			t.Error("Save must not run for an ineligible scenario")
			return nil
		}}
		res := RunOne(context.Background(), sc)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		if res.CheckpointFallback == "" {
			t.Error("CheckpointFallback empty, want surfaced reason")
		}
	})
	t.Run("dpm-resume-error", func(t *testing.T) {
		sc := base
		sc.Analyzer.DPM = &core.DPMConfig{IdleThreshold: 8}
		sc.Checkpoint = &CheckpointConfig{Resume: []byte("{}")}
		if res := RunOne(context.Background(), sc); res.Err == nil {
			t.Error("resuming an ineligible scenario must fail")
		}
	})
	t.Run("tlm-fallback", func(t *testing.T) {
		sc := base
		sc.Accuracy = AccuracyTransaction
		sc.Checkpoint = &CheckpointConfig{Save: noopSave}
		res := RunOne(context.Background(), sc)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		if res.Accuracy != AccuracyCycle || res.BackendFallback == "" {
			t.Errorf("transaction + checkpoint: accuracy %q, fallback %q; want conservative cycle fallback",
				res.Accuracy, res.BackendFallback)
		}
	})
}

// TestRetryBackoffDeadline verifies the runner fails fast, classed as a
// timeout, when the computed backoff would outlive the context deadline —
// instead of sleeping out the delay just to report the stale transient
// class.
func TestRetryBackoffDeadline(t *testing.T) {
	r := NewRunner(1)
	r.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: 30 * time.Second, MaxBackoff: 30 * time.Second}
	sc := Scenario{
		Name:     "backoff-deadline",
		System:   core.PaperSystem(),
		Analyzer: core.AnalyzerConfig{Style: core.StyleGlobal},
		Cycles:   200,
		Faults:   &fault.Plan{FailFirst: 3}, // transient failures invite retries
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	res := r.runScenario(ctx, 0, sc, nil)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("runScenario slept %v into a 30s backoff under a 2s deadline", elapsed)
	}
	if res.Err == nil {
		t.Fatal("expected a failure")
	}
	if c := Classify(res.Err); c != ClassTimeout {
		t.Errorf("failure class = %v, want %v (err: %v)", c, ClassTimeout, res.Err)
	}
}
