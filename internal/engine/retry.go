package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"
)

// FailureClass is the engine's failure taxonomy. Every executed scenario
// that fails is classified so batch consumers (the runner's retry loop,
// the serving layer, the chaos harness) can react per class instead of
// string-matching error text.
type FailureClass uint8

// Failure classes.
const (
	// ClassPermanent is a deterministic failure: invalid configuration,
	// construction or workload errors, panics. Retrying cannot help.
	ClassPermanent FailureClass = iota
	// ClassTransient is a failure marked retryable by its error (an
	// `interface{ Transient() bool }` in the chain, e.g. an injected
	// fault). The runner retries these under its RetryPolicy.
	ClassTransient
	// ClassTimeout means the scenario's own Timeout expired. A
	// deterministic simulation would time out again, so it is not retried.
	ClassTimeout
	// ClassCanceled means the batch context ended (drain, Ctrl-C, request
	// deadline) — an external decision, never retried.
	ClassCanceled
)

// String names the class.
func (c FailureClass) String() string {
	switch c {
	case ClassPermanent:
		return "permanent"
	case ClassTransient:
		return "transient"
	case ClassTimeout:
		return "timeout"
	case ClassCanceled:
		return "canceled"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ScenarioError is the typed per-scenario failure a runner batch reports:
// the classified, attempt-annotated wrapper around the underlying error.
// One scenario failing this way never poisons its batch — every other
// scenario still completes and the batch returns normally.
type ScenarioError struct {
	// Name and Index identify the scenario within its batch.
	Name  string
	Index int
	// Class is the failure classification of the final attempt.
	Class FailureClass
	// Attempts is how many execution attempts were made.
	Attempts int
	// Err is the final attempt's underlying error.
	Err error
}

// Error implements error.
func (e *ScenarioError) Error() string {
	return fmt.Sprintf("%v (%s failure, %d attempt(s))", e.Err, e.Class, e.Attempts)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *ScenarioError) Unwrap() error { return e.Err }

// transient is the marker interface retryable errors implement (e.g.
// fault.InjectedFault).
type transient interface{ Transient() bool }

// Classify maps an error to its failure class. Context sentinels win over
// the transient marker: a run cancelled mid-retry is canceled, not
// transient.
func Classify(err error) FailureClass {
	var se *ScenarioError
	if errors.As(err, &se) {
		return se.Class
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCanceled
	}
	var t transient
	if errors.As(err, &t) && t.Transient() {
		return ClassTransient
	}
	return ClassPermanent
}

// RetryPolicy bounds how a Runner retries transiently failed scenarios.
// The zero value means a single attempt (no retries).
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per scenario (first try
	// included); values below 1 mean 1.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff. Defaults (when MaxAttempts > 1): 10ms
	// base, 1s cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter is the symmetric fractional randomization of each delay in
	// [0,1]: 0.2 means ±20%. Jitter draws come from a per-scenario seeded
	// PRNG, so batches stay deterministic in everything but wall time.
	Jitter float64
}

// DefaultRetryPolicy returns the policy CLIs and the serving layer start
// from: three attempts with 10ms → 500ms exponential backoff, ±20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 500 * time.Millisecond, Jitter: 0.2}
}

// normalized fills the documented defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// backoff computes the (jittered) delay before retry number attempt
// (0-based: attempt 0 failed, delay precedes attempt 1). Doubling stops
// as soon as the next step would reach or overflow the cap: with a cap
// near the int64 ceiling, unbounded `d *= 2` wraps negative around
// attempt 40 and the final clamps would turn the longest waits into
// zero-sleep hot retry loops.
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := p.BaseBackoff
	for i := 0; i < attempt && d < p.MaxBackoff; i++ {
		if d > p.MaxBackoff/2 {
			d = p.MaxBackoff
			break
		}
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 {
		// Jitter in float space, clamped before the cast back: converting
		// an out-of-range float to time.Duration is not defined to
		// saturate, so a near-ceiling cap jittered upward must not wrap.
		f := float64(d) * (1 + p.Jitter*(2*rng.Float64()-1))
		if f >= float64(math.MaxInt64) {
			d = p.MaxBackoff
		} else {
			d = time.Duration(f)
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// runScenario is the runner's per-scenario execution loop: attempts under
// the retry policy, classification, and wrapping into ScenarioError.
// Scenarios that never started because the batch context was already done
// keep the raw context error (matching the abandoned-scenario contract of
// Run); every other failure comes back typed.
func (r *Runner) runScenario(ctx context.Context, index int, sc Scenario, share *scriptShare) Result {
	pol := r.Retry.normalized()
	var rng *rand.Rand
	for attempt := 0; ; attempt++ {
		res := executeAttempt(ctx, index, sc, attempt, share)
		if res.Err == nil {
			return res
		}
		class := Classify(res.Err)
		// Raw context sentinels mean the scenario never ran (pre-start
		// check) — leave them untouched for the abandoned-path contract.
		if res.Err != context.Canceled && res.Err != context.DeadlineExceeded {
			res.Err = &ScenarioError{Name: sc.Name, Index: index, Class: class, Attempts: attempt + 1, Err: res.Err}
		}
		if class != ClassTransient || attempt+1 >= pol.MaxAttempts || ctx.Err() != nil {
			return res
		}
		if rng == nil {
			rng = rand.New(rand.NewSource(jitterSeed(sc.Name, index)))
		}
		delay := pol.backoff(attempt, rng)
		// Fail fast when the context deadline lands inside the backoff
		// window: sleeping out the delay just to observe the expiry would
		// report the scenario with the transient class of the last attempt
		// after burning the caller's remaining deadline doing nothing.
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= delay {
			res.Err = &ScenarioError{Name: sc.Name, Index: index, Class: ClassTimeout, Attempts: attempt + 1,
				Err: fmt.Errorf("engine: scenario %q: retry backoff %v outlives the context deadline: %w",
					sc.Name, delay, context.DeadlineExceeded)}
			return res
		}
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return res
		case <-t.C:
		}
	}
}

// jitterSeed derives a deterministic backoff-jitter seed from the
// scenario's identity, so retry schedules are reproducible too.
func jitterSeed(name string, index int) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	var b [8]byte
	for i := range b {
		b[i] = byte(index >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64())
}
