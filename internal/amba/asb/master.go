package asb

import (
	"fmt"

	"ahbpower/internal/amba/wordmem"
)

// OpKind is the kind of a master operation.
type OpKind uint8

// Operation kinds.
const (
	OpWrite OpKind = iota
	OpRead
)

// Op is one ASB operation: a single transfer or an incrementing burst.
type Op struct {
	Kind OpKind
	Addr uint32
	Data []uint32 // write beats; length sets the burst length
	// Beats sets the read burst length (default 1).
	Beats int
}

func (o *Op) beats() int {
	if o.Kind == OpWrite {
		if len(o.Data) == 0 {
			return 1
		}
		return len(o.Data)
	}
	if o.Beats <= 0 {
		return 1
	}
	return o.Beats
}

// Sequence is a run of operations performed back-to-back with the bus
// request held, followed by idle cycles with the request released.
type Sequence struct {
	Ops       []Op
	IdleAfter int
}

// Result records one completed beat.
type Result struct {
	Write bool
	Addr  uint32
	Data  uint32
	Error bool
}

// Master is a script-driven ASB master.
type Master struct {
	bus   *Bus
	idx   int
	ports *masterPorts

	script  []Sequence
	seqIdx  int
	opIdx   int
	beat    int
	idleCnt int

	addrPhase *asbFlight
	dataPhase *asbFlight

	results []Result
	keepRes bool
	beats   uint64
	errors  uint64
}

type asbFlight struct {
	addr  uint32
	write bool
	data  uint32
	tran  uint8
}

// NewMaster attaches a master to bus port idx.
func NewMaster(b *Bus, idx int) (*Master, error) {
	if idx < 0 || idx >= b.Cfg.NumMasters {
		return nil, fmt.Errorf("asb: master index %d out of range", idx)
	}
	m := &Master{bus: b, idx: idx, ports: &b.M[idx]}
	b.K.MethodNoInit(fmt.Sprintf("%s.master%d", b.Cfg.Name, idx), m.tick, b.Clk.Posedge())
	return m, nil
}

// Enqueue appends sequences to the script.
func (m *Master) Enqueue(seqs ...Sequence) { m.script = append(m.script, seqs...) }

// KeepResults records completed beats for verification.
func (m *Master) KeepResults(keep bool) { m.keepRes = keep }

// Results returns recorded beats.
func (m *Master) Results() []Result { return m.results }

// Beats returns the number of completed data beats.
func (m *Master) Beats() uint64 { return m.beats }

// Done reports whether the script has fully executed.
func (m *Master) Done() bool {
	return m.seqIdx >= len(m.script) && m.addrPhase == nil && m.dataPhase == nil
}

func (m *Master) tick() {
	if m.bus.BWait.Read() {
		return // everything frozen during wait states
	}
	granted := m.bus.AGnt[m.idx].Read()

	// Complete the data phase.
	if m.dataPhase != nil {
		f := m.dataPhase
		m.dataPhase = nil
		m.beats++
		r := Result{Write: f.write, Addr: f.addr, Error: m.bus.BError.Read()}
		if r.Error {
			m.errors++
		}
		if f.write {
			r.Data = f.data
		} else {
			r.Data = m.bus.BD.Read()
		}
		if m.keepRes {
			m.results = append(m.results, r)
		}
	}

	// Promote the sampled address phase.
	if m.addrPhase != nil {
		if m.addrPhase.tran == TranNonSeq || m.addrPhase.tran == TranSeq {
			m.dataPhase = m.addrPhase
			if m.dataPhase.write {
				m.ports.BDOut.Write(m.dataPhase.data)
			}
		}
		m.addrPhase = nil
	}

	m.driveNext(granted)
}

func (m *Master) currentOp() *Op {
	if m.seqIdx >= len(m.script) {
		return nil
	}
	seq := &m.script[m.seqIdx]
	if m.opIdx >= len(seq.Ops) {
		return nil
	}
	return &seq.Ops[m.opIdx]
}

func (m *Master) driveNext(granted bool) {
	wantBus := m.idleCnt == 0 && m.currentOp() != nil
	m.ports.AReq.Write(wantBus)
	if !granted || !wantBus {
		m.ports.BTran.Write(TranAddressOnly)
		if !wantBus && m.idleCnt > 0 {
			m.idleCnt--
		}
		return
	}
	op := m.currentOp()
	f := &asbFlight{write: op.Kind == OpWrite}
	if m.beat == 0 {
		f.addr = op.Addr
		f.tran = TranNonSeq
	} else {
		f.addr = op.Addr + uint32(m.beat)*4
		f.tran = TranSeq
	}
	if f.write && m.beat < len(op.Data) {
		f.data = op.Data[m.beat] & m.bus.DataMask()
	}
	m.addrPhase = f
	m.ports.BTran.Write(f.tran)
	m.ports.BA.Write(f.addr)
	m.ports.BWr.Write(f.write)

	m.beat++
	if m.beat >= op.beats() {
		m.beat = 0
		m.opIdx++
		if m.opIdx >= len(m.script[m.seqIdx].Ops) {
			m.opIdx = 0
			m.idleCnt = m.script[m.seqIdx].IdleAfter
			m.seqIdx++
		}
	}
}

// MemorySlave is a word-addressable ASB memory with configurable wait
// states.
type MemorySlave struct {
	bus   *Bus
	idx   int
	ports *slavePorts
	Waits int

	mem wordmem.Memory
	// pending is the latched address phase, valid while busy.
	pending  asbLatched
	busy     bool
	waitLeft int
}

type asbLatched struct {
	addr  uint32
	write bool
}

// NewMemorySlave attaches a memory slave to bus port idx.
func NewMemorySlave(b *Bus, idx, waits int) (*MemorySlave, error) {
	if idx < 0 || idx >= b.Cfg.NumSlaves {
		return nil, fmt.Errorf("asb: slave index %d out of range", idx)
	}
	if waits < 0 {
		return nil, fmt.Errorf("asb: negative wait states")
	}
	s := &MemorySlave{bus: b, idx: idx, ports: &b.S[idx], Waits: waits}
	b.K.MethodNoInit(fmt.Sprintf("%s.memslave%d", b.Cfg.Name, idx), s.tick, b.Clk.Posedge())
	return s, nil
}

// Poke writes directly into the backing memory.
func (s *MemorySlave) Poke(addr, val uint32) { s.mem.Store(addr>>2, val) }

// Peek reads directly from the backing memory.
func (s *MemorySlave) Peek(addr uint32) uint32 { return s.mem.Load(addr >> 2) }

func (s *MemorySlave) tick() {
	if s.busy {
		if s.waitLeft > 0 {
			s.waitLeft--
			if s.waitLeft == 0 {
				s.finish()
			}
			return
		}
		// Data phase completed at this edge.
		if s.pending.write {
			s.mem.Store(s.pending.addr>>2, s.bus.BD.Read())
		}
		s.busy = false
	}
	if s.bus.BWait.Read() {
		return
	}
	t := s.bus.BTran.Read()
	if s.bus.Sel[s.idx].Read() && (t == TranNonSeq || t == TranSeq) {
		s.pending, s.busy = asbLatched{addr: s.bus.BA.Read(), write: s.bus.BWrite.Read()}, true
		if s.Waits > 0 {
			s.waitLeft = s.Waits
			s.ports.BWait.Write(true)
		} else {
			s.finish()
		}
	} else {
		s.ports.BWait.Write(false)
	}
}

func (s *MemorySlave) finish() {
	s.ports.BWait.Write(false)
	if !s.pending.write {
		s.ports.BDOut.Write(s.mem.Load(s.pending.addr >> 2))
	}
}
