package engine

// Batch-scoped traffic sharing. The paper's method prices many bus
// architectures against one fixed testbench, so a design-space batch
// typically holds a handful of distinct traffic sets under dozens of
// scenarios. Runner.Run resolves every scenario's traffic before dispatch
// and generates each set that two or more scenarios use exactly once; all
// of them then read the same scripts.
//
// Sharing is safe because generated scripts are immutable once built: the
// masters copy the sequence lists but only ever write an op through its
// BusyBefore map, which workload.Generate never sets (and a checkpoint
// restore refuses to add one, see ahb.Master.RestoreState). Scenarios with
// a Setup hook or KeepSystem hand their caller a mutable core.System, so
// they always generate privately.
//
// The share lives for one Run call only. An entry is dropped when its last
// user finishes (succeeded, failed or cancelled), and traffic used by a
// single scenario is generated privately exactly as Execute does, so a
// batch whose scenarios all differ holds no more scripts than running them
// one at a time.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/workload"
)

// scriptShare is one batch's shared traffic. A nil *scriptShare generates
// every request privately.
type scriptShare struct {
	// byIndex maps a scenario index to its shared entry; nil means the
	// scenario generates privately. Each index is touched only by the
	// worker running that scenario.
	byIndex []*sharedScripts

	mu      sync.Mutex
	entries map[string]*sharedScripts // live entries by traffic key

	// generated counts script-set generations, shared and private.
	generated atomic.Int64
}

// sharedScripts is one traffic set used by two or more scenarios.
type sharedScripts struct {
	key     string
	cfgs    []workload.Config
	once    sync.Once
	scripts [][]ahb.Sequence
	err     error
	users   int // scenarios yet to finish; guarded by scriptShare.mu
}

// newScriptShare is the pre-dispatch pass: it resolves the traffic of
// every scenario, counts the users of each distinct traffic set and
// creates an entry for every set with two or more users.
func newScriptShare(scenarios []Scenario) *scriptShare {
	s := &scriptShare{
		byIndex: make([]*sharedScripts, len(scenarios)),
		entries: make(map[string]*sharedScripts),
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
			e = &sharedScripts{key: k, cfgs: cfgs[i], users: users[k]}
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
// resolved to cfgs: the batch's shared copy when there is one (generated
// by its first user), else a private one.
func (s *scriptShare) scripts(index int, cfgs []workload.Config) ([][]ahb.Sequence, error) {
	if s == nil {
		return workload.GenerateAll(cfgs)
	}
	if e := s.byIndex[index]; e != nil {
		e.once.Do(func() {
			s.generated.Add(1)
			e.scripts, e.err = workload.GenerateAll(e.cfgs)
		})
		return e.scripts, e.err
	}
	s.generated.Add(1)
	return workload.GenerateAll(cfgs)
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
		e.scripts = nil
	}
}
