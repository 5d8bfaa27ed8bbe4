package engine

// Batch-scoped traffic sharing. The paper's method prices many bus
// architectures against one fixed testbench, so a design-space batch
// typically holds a handful of distinct traffic sets under dozens of
// scenarios. Runner.Run resolves every scenario's traffic before dispatch
// and generates each set that two or more scenarios use exactly once; all
// of them then read the same scripts. Generation is split by master: a
// user that finds a set incomplete generates a master no other user has
// claimed, and waits only for the masters already claimed by others.
//
// A shared set also memoizes the transaction-level walks over its scripts
// (see tlm.WalkKey): transaction scenarios that share the set and a wait
// map, horizon and prefix — design points differing only in policy or
// data width — walk once per Run and all read the one result.
//
// Sharing is safe because generated scripts are immutable once built: the
// masters copy the sequence lists but only ever write an op through its
// BusyBefore map, which workload.Generate never sets (and a checkpoint
// restore refuses to add one, see ahb.Master.RestoreState). Scenarios with
// a Setup hook or KeepSystem hand their caller a mutable core.System, so
// they always generate privately.
//
// The share lives for one Run call only. An entry is dropped when its last
// user finishes (succeeded, failed or cancelled), its scripts and walks
// with it, and traffic used by a single scenario is generated and walked
// privately exactly as Execute does, so a batch whose scenarios all differ
// holds no more scripts than running them one at a time.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/tlm"
	"ahbpower/internal/workload"
)

// scriptShare is one batch's shared traffic. A nil *scriptShare generates
// every request privately.
type scriptShare struct {
	// byIndex maps a scenario index to its shared entry; nil means the
	// scenario generates privately. Each index is touched only by the
	// worker running that scenario.
	byIndex []*sharedScripts
	// sources holds each scenario's tlm.Source, built once per batch so
	// that handing one to tlm.PrepareWith allocates nothing.
	sources []shareSource

	mu      sync.Mutex
	entries map[string]*sharedScripts // live entries by traffic key

	// generated counts per-master script generations and walked counts
	// transaction walks, shared and private.
	generated atomic.Int64
	walked    atomic.Int64
}

// sharedScripts is one traffic set used by two or more scenarios.
type sharedScripts struct {
	key  string
	cfgs []workload.Config

	// claimed counts the masters handed out for generation; the user that
	// claims master m writes scripts[m] and errs[m], then marks it done on
	// pending.
	claimed atomic.Int64
	pending sync.WaitGroup
	scripts [][]ahb.Sequence
	errs    []error

	walkMu sync.Mutex
	walks  []*sharedWalk

	users int // scenarios yet to finish; guarded by scriptShare.mu
}

// sharedWalk is one memoized transaction walk of a shared traffic set.
type sharedWalk struct {
	key  tlm.WalkKey
	once sync.Once
	walk *tlm.Walk
}

// errGenerationAborted is what users of a shared set read for a master
// whose generation panicked.
var errGenerationAborted = errors.New("engine: shared script generation aborted")

// newScriptShare is the pre-dispatch pass: it resolves the traffic of
// every scenario, counts the users of each distinct traffic set and
// creates an entry for every set with two or more users.
func newScriptShare(scenarios []Scenario) *scriptShare {
	s := &scriptShare{
		byIndex: make([]*sharedScripts, len(scenarios)),
		sources: make([]shareSource, len(scenarios)),
		entries: make(map[string]*sharedScripts),
	}
	for i := range s.sources {
		s.sources[i] = shareSource{s, i}
	}
	keys := make([]string, len(scenarios))
	cfgs := make([][]workload.Config, len(scenarios))
	users := make(map[string]int)
	for i := range scenarios {
		sc := &scenarios[i]
		if sc.Setup != nil || sc.KeepSystem {
			continue
		}
		ct := sc.Topology()
		c, err := ct.Traffic(sc.Workloads, sc.Cycles)
		if err != nil {
			continue // the scenario reports the error when it runs
		}
		keys[i], cfgs[i] = trafficKey(c), c
		users[keys[i]]++
	}
	for i, k := range keys {
		if k == "" || users[k] < 2 {
			continue
		}
		e := s.entries[k]
		if e == nil {
			n := len(cfgs[i])
			e = &sharedScripts{key: k, cfgs: cfgs[i], users: users[k],
				scripts: make([][]ahb.Sequence, n), errs: make([]error, n)}
			e.pending.Add(n)
			s.entries[k] = e
		}
		s.byIndex[i] = e
	}
	return s
}

// trafficKey identifies a resolved traffic set. workload.Config holds
// only scalar fields, so its printed form is exact.
func trafficKey(cfgs []workload.Config) string {
	return fmt.Sprint(cfgs)
}

// scripts returns the generated scripts of scenario index, whose traffic
// resolved to cfgs: the batch's shared copy when there is one, else a
// private one. A user of a shared copy first generates every master no
// other user has claimed yet, then waits for the claimed ones.
func (s *scriptShare) scripts(index int, cfgs []workload.Config) ([][]ahb.Sequence, error) {
	if s == nil {
		return workload.GenerateAll(cfgs)
	}
	e := s.byIndex[index]
	if e == nil {
		s.generated.Add(int64(len(cfgs)))
		return workload.GenerateAll(cfgs)
	}
	for m := int(e.claimed.Add(1)) - 1; m < len(e.cfgs); m = int(e.claimed.Add(1)) - 1 {
		s.generated.Add(1)
		e.generate(m)
	}
	e.pending.Wait()
	for _, err := range e.errs {
		if err != nil {
			return nil, err
		}
	}
	return e.scripts, nil
}

// generate generates the script of master m. A panic propagates to the
// claiming user; the others read errGenerationAborted.
func (e *sharedScripts) generate(m int) {
	defer e.pending.Done()
	e.errs[m] = errGenerationAborted
	e.scripts[m], e.errs[m] = workload.Generate(e.cfgs[m])
}

// walk returns the transaction walk of scenario index for key: the walk
// of its shared set for an equal key, computed by the first user to ask,
// else a private one.
func (s *scriptShare) walk(index int, key tlm.WalkKey, walk func() *tlm.Walk) *tlm.Walk {
	e := s.byIndex[index]
	if e == nil {
		s.walked.Add(1)
		return walk()
	}
	var sw *sharedWalk
	e.walkMu.Lock()
	for _, c := range e.walks {
		if c.key.Equal(&key) {
			sw = c
			break
		}
	}
	if sw == nil {
		sw = &sharedWalk{key: key}
		e.walks = append(e.walks, sw)
	}
	e.walkMu.Unlock()
	sw.once.Do(func() {
		s.walked.Add(1)
		sw.walk = walk()
	})
	return sw.walk
}

// prepare prepares the estimate of scenario index on the batch's scripts
// and walks; a nil share prepares privately.
func (s *scriptShare) prepare(index int, spec tlm.Spec) (*tlm.Prepared, error) {
	if s == nil {
		return tlm.Prepare(spec)
	}
	return tlm.PrepareWith(spec, &s.sources[index])
}

// shareSource is the tlm.Source of scenario index in a batch.
type shareSource struct {
	share *scriptShare
	index int
}

func (u *shareSource) Scripts(cfgs []workload.Config) ([][]ahb.Sequence, error) {
	return u.share.scripts(u.index, cfgs)
}

func (u *shareSource) Walk(key tlm.WalkKey, walk func() *tlm.Walk) *tlm.Walk {
	return u.share.walk(u.index, key, walk)
}

// release records that scenario index has finished; the last user of an
// entry drops it.
func (s *scriptShare) release(index int) {
	if s == nil || s.byIndex[index] == nil {
		return
	}
	e := s.byIndex[index]
	s.byIndex[index] = nil
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.users--; e.users == 0 {
		delete(s.entries, e.key)
		e.scripts, e.walks = nil, nil
	}
}
