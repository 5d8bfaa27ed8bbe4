package tlm

import (
	"slices"

	"ahbpower/internal/amba/ahb"
	"ahbpower/internal/power"
	"ahbpower/internal/topo"
)

// instrCounts maps power-FSM instructions to cycle counts. The state
// space is tiny (4x4), so a flat array indexed From*NumStates+To is both
// the fastest and the simplest representation.
type instrCounts [power.NumStates * power.NumStates]uint64

func (c *instrCounts) add(from, to power.State, n uint64) {
	c[int(from)*power.NumStates+int(to)] += n
}

// emitter turns state runs into instruction counts with the power.FSM's
// exact attribution semantics: the first cycle only establishes the
// initial state; every later cycle contributes one (prev -> cur)
// instruction. Counts are kept for the full horizon and, separately, for
// the calibration-prefix window, by splitting runs at the boundary — the
// walk stays O(#runs), never O(#cycles).
type emitter struct {
	prefix, horizon uint64
	t               uint64 // cycles emitted so far
	havePrev        bool
	prev            power.State
	full            instrCounts
	pre             instrCounts
}

// run emits n consecutive cycles of state s, clamped to the horizon.
func (e *emitter) run(s power.State, n uint64) {
	if n == 0 || e.t >= e.horizon {
		return
	}
	if e.t+n > e.horizon {
		n = e.horizon - e.t
	}
	if !e.havePrev {
		e.havePrev, e.prev = true, s
		e.t++
		n--
		if n == 0 {
			return
		}
	}
	// The transition cycle, then the self-run.
	e.addRun(e.prev, s, 1)
	e.prev = s
	if n > 1 {
		e.addRun(s, s, n-1)
	}
}

// addRun counts n instruction cycles, splitting the count across the
// prefix boundary by the (1-based) index of each cycle.
func (e *emitter) addRun(from, to power.State, n uint64) {
	e.full.add(from, to, n)
	if e.t < e.prefix {
		inPre := e.prefix - e.t
		if inPre > n {
			inPre = n
		}
		e.pre.add(from, to, inPre)
	}
	e.t += n
}

// Walk is everything the transaction walk derives from the scripts:
// instruction counts over both windows plus estimated protocol counters.
// A Walk is read-only once runWalk returns it, so the scenarios of a
// batch that share scripts and a WalkKey can share one Walk.
type Walk struct {
	full   instrCounts
	pre    instrCounts
	cycles uint64

	// tailFull and tailPre count the dead-bus IDLE_HO self-loop cycles of
	// the post-script tail, over the full horizon and within the
	// calibration-prefix window. Once every script has drained nothing
	// switches — no requests, no grant churn — so those cycles cost clock
	// plus idle arbitration only, unlike the busy-region gap idles the
	// prefix measures; calibrate prices them analytically instead of
	// letting a busy prefix inflate them.
	tailFull uint64
	tailPre  uint64

	beats     uint64
	nonseq    uint64
	seq       uint64
	waits     uint64
	handovers uint64
	idle      uint64
}

// monitorCounts projects the walk's protocol estimates onto the bus
// monitor's counter key space, keeping the only-nonzero convention.
func (w *Walk) monitorCounts() map[string]uint64 {
	m := make(map[string]uint64, 5)
	for _, c := range [...]struct {
		key string
		n   uint64
	}{
		{"nonseq", w.nonseq},
		{"seq", w.seq},
		{"wait", w.waits},
		{"handover", w.handovers},
		{"idle", w.idle},
	} {
		if c.n > 0 {
			m[c.key] = c.n
		}
	}
	return m
}

// WalkKey is everything a transaction walk reads besides the scripts:
// the wait map (the topology's flattened address regions, the same table
// the bus decoder is built from, and each slave's wait states), the
// horizon and the calibration prefix. The arbitration policy and the data
// width never enter the walk: it serves sequences in a fixed
// preemption-free order and counts cycles, not bits, and the prefix
// calibration prices both. Design points that differ only in policy or
// width therefore share one walk of the same scripts.
type WalkKey struct {
	regions []ahb.Region
	waits   []int
	horizon uint64
	prefix  uint64
}

func newWalkKey(ct *topo.Topology, horizon, prefix uint64) WalkKey {
	k := WalkKey{regions: ct.Regions(), waits: make([]int, len(ct.Slaves)), horizon: horizon, prefix: prefix}
	for i, s := range ct.Slaves {
		k.waits[i] = s.Waits
	}
	return k
}

// Equal reports whether two keys describe the same walk, by value.
func (k *WalkKey) Equal(o *WalkKey) bool {
	return k.horizon == o.horizon && k.prefix == o.prefix &&
		slices.Equal(k.regions, o.regions) && slices.Equal(k.waits, o.waits)
}

// waitCursor resolves wait states by address, trying the region of the
// previous lookup first: a sequence stays within its locality window, so
// consecutive ops mostly decode to the same region. topo.Check rejects
// overlapping regions, so the region containing an address is unique and
// the shortcut returns what a scan in order would.
type waitCursor struct {
	key         *WalkKey
	start, size uint32 // region of the last match; size 0 before the first
	waits       int    // its slave's wait states
}

func (c *waitCursor) at(addr uint32) int {
	if addr >= c.start && addr-c.start < c.size {
		return c.waits
	}
	return c.find(addr)
}

func (c *waitCursor) find(addr uint32) int {
	for _, r := range c.key.regions {
		if r.Contains(addr) {
			c.start, c.size, c.waits = r.Start, r.Size, c.key.waits[r.Slave]
			return c.waits
		}
	}
	return 0
}

// startupLatency approximates the request -> grant -> address-phase
// pipeline delay before the first transfer of a run reaches the bus.
const startupLatency = 2

// runWalk serves the generated scripts at transaction granularity and
// counts power-FSM instructions over the horizon. The model is
// deliberately preemption-free: whole sequences are served atomically in
// round-robin order among masters with pending work, each beat costs
// (1 + wait-states) transfer cycles, per-sequence idle budgets elapse
// concurrently with other masters' transfers, ownership changes insert
// one handover cycle, and windows where no master is ready — plus the
// post-script tail — classify as IDLE_HO, matching the analyzer's
// classifier for released-request idle cycles. Arbitration-policy
// effects the walk does not replay (fixed/rr mid-sequence preemption)
// are stationary mix shifts the prefix calibration cancels.
func runWalk(k WalkKey, scripts [][]ahb.Sequence) *Walk {
	type mstate struct {
		seqs  []ahb.Sequence
		next  int
		ready uint64
	}
	ms := make([]mstate, len(scripts))
	for i, s := range scripts {
		ms[i] = mstate{seqs: s}
	}
	horizon, prefix := k.horizon, k.prefix
	wt := waitCursor{key: &k}
	em := &emitter{prefix: prefix, horizon: horizon}
	w := &Walk{cycles: horizon}

	em.run(power.Idle, startupLatency)
	last := -1
	for em.t < horizon {
		// Round-robin pick among ready masters, starting after the last
		// served one.
		pick := -1
		for i := 1; i <= len(ms); i++ {
			c := ((last+i)%len(ms) + len(ms)) % len(ms)
			if ms[c].next < len(ms[c].seqs) && ms[c].ready <= em.t {
				pick = c
				break
			}
		}
		if pick < 0 {
			// Nobody ready: idle until the earliest pending master wakes,
			// or break to the tail when every script is drained.
			var nextReady uint64
			pending := false
			for i := range ms {
				if ms[i].next < len(ms[i].seqs) {
					if !pending || ms[i].ready < nextReady {
						nextReady = ms[i].ready
					}
					pending = true
				}
			}
			if !pending {
				break
			}
			gap := uint64(1)
			if nextReady > em.t {
				gap = nextReady - em.t
			}
			em.run(power.IdleHO, gap)
			continue
		}
		if last >= 0 && last != pick {
			em.run(power.IdleHO, 1)
			w.handovers++
		}
		st := &ms[pick]
		seq := &st.seqs[st.next]
		for j := range seq.Ops {
			op := &seq.Ops[j]
			if em.t >= horizon {
				break
			}
			switch op.Kind {
			case ahb.OpIdle:
				em.run(power.Idle, uint64(op.IdleCycles))
			case ahb.OpWrite, ahb.OpRead:
				state := power.Read
				if op.Kind == ahb.OpWrite {
					state = power.Write
				}
				beats := uint64(op.Beats)
				if op.Kind == ahb.OpWrite && len(op.Data) > 0 {
					beats = uint64(len(op.Data))
				}
				if beats == 0 {
					beats = 1
				}
				waits := uint64(wt.at(op.Addr))
				cost := beats * (1 + waits)
				t0 := em.t
				em.run(state, cost)
				served := em.t - t0
				fit := beats // beats served whole; fewer only at the horizon
				if served < cost {
					fit = served / (1 + waits)
				}
				w.beats += fit
				if fit > 0 {
					w.nonseq++
					w.seq += fit - 1
				}
				w.waits += served - fit
			}
		}
		st.next++
		st.ready = em.t + uint64(seq.IdleAfter)
		last = pick
	}
	if em.t < horizon {
		tail := power.Idle
		if em.havePrev && last >= 0 {
			tail = power.IdleHO
		}
		tailStart := em.t
		em.run(tail, horizon-em.t)
		if run := horizon - tailStart; tail == power.IdleHO && run > 1 {
			// The first tail cycle is the (prev -> IDLE_HO) transition;
			// the rest are the dead-bus self-loop that calibrate prices
			// analytically rather than against the busy prefix.
			w.tailFull = run - 1
			if s := tailStart + 1; s < prefix {
				w.tailPre = prefix - s
			}
		}
	}
	w.full = em.full
	w.pre = em.pre
	transfer := w.beats + w.waits
	if horizon > transfer {
		w.idle = horizon - transfer
	}
	return w
}
