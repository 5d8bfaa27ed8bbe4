// Package workload generates the bus traffic of the paper's testbench:
// masters executing "WRITE-READ non-interruptible sequences and IDLE
// commands, for a random number of times", plus generic address/data
// pattern generators for design-space exploration.
package workload

import (
	"fmt"
	"math/rand"

	"ahbpower/internal/amba/ahb"
)

// Pattern selects how write data is generated; data activity directly
// drives the Hamming-distance terms of the energy macromodels.
type Pattern uint8

// Data patterns.
const (
	// PatternRandom draws uniform random words (average HD = w/2).
	PatternRandom Pattern = iota
	// PatternLowActivity flips a small random number of bits per step
	// (average HD ≈ 2), modeling correlated data streams.
	PatternLowActivity
	// PatternCounter produces an incrementing counter (average HD ≈ 2).
	PatternCounter
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case PatternRandom:
		return "random"
	case PatternLowActivity:
		return "low-activity"
	case PatternCounter:
		return "counter"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// ParsePattern parses a pattern name as produced by Pattern.String. The
// empty string parses as PatternRandom, the paper's default.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "", "random":
		return PatternRandom, nil
	case "low-activity":
		return PatternLowActivity, nil
	case "counter":
		return PatternCounter, nil
	}
	return PatternRandom, fmt.Errorf("workload: unknown pattern %q (want random, low-activity or counter)", s)
}

// Config parameterizes a master's traffic.
type Config struct {
	Seed         int64
	NumSequences int
	// Each sequence contains PairsMin..PairsMax WRITE-READ pairs.
	PairsMin, PairsMax int
	// After each sequence the master idles (bus released) for
	// IdleMin..IdleMax cycles.
	IdleMin, IdleMax int
	// Addresses are drawn word-aligned from [AddrBase, AddrBase+AddrSize).
	AddrBase, AddrSize uint32
	// LocalityWindow, when nonzero, confines each sequence to one
	// LocalityWindow-sized aligned window inside the address range —
	// modeling a master working on a buffer in one slave, so that the
	// slave mux re-selects per sequence rather than per transfer.
	LocalityWindow uint32
	Pattern        Pattern
	// BurstBeats > 1 turns each WRITE/READ into a fixed burst of that
	// length (1, 4, 8 or 16). The paper's testbench uses single transfers.
	BurstBeats int
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	if c.NumSequences < 1 {
		return fmt.Errorf("workload: NumSequences=%d, want >=1", c.NumSequences)
	}
	if c.PairsMin < 1 || c.PairsMax < c.PairsMin {
		return fmt.Errorf("workload: bad pairs range [%d,%d]", c.PairsMin, c.PairsMax)
	}
	if c.IdleMin < 0 || c.IdleMax < c.IdleMin {
		return fmt.Errorf("workload: bad idle range [%d,%d]", c.IdleMin, c.IdleMax)
	}
	if c.AddrSize < 4 {
		return fmt.Errorf("workload: AddrSize=%d, want >=4", c.AddrSize)
	}
	switch c.BurstBeats {
	case 0, 1, 4, 8, 16:
	default:
		return fmt.Errorf("workload: BurstBeats=%d, want 1/4/8/16", c.BurstBeats)
	}
	return nil
}

// PaperTestbench returns the configuration of the paper's testbench master
// m: single-word WRITE-READ pairs over a 3-slave address map, with
// sequence lengths and idle gaps chosen to reproduce the Table 1
// instruction mix (long data sequences, idle-handover gaps of a dozen or
// so cycles).
func PaperTestbench(m int, numSequences int) Config {
	return Config{
		Seed:           0x5EED + int64(m)*7919,
		NumSequences:   numSequences,
		PairsMin:       15,
		PairsMax:       35,
		IdleMin:        35,
		IdleMax:        70,
		AddrBase:       0,
		AddrSize:       3 * 0x1000, // spans all three slaves
		LocalityWindow: 0x1000,     // each sequence works within one slave
		Pattern:        PatternRandom,
		BurstBeats:     1,
	}
}

// Generate produces the master script described by the configuration.
func Generate(cfg Config) ([]ahb.Sequence, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	beats := cfg.BurstBeats
	if beats == 0 {
		beats = 1
	}
	gen := newDataGen(cfg.Pattern, rng)
	seqs := make([]ahb.Sequence, 0, cfg.NumSequences)
	for s := 0; s < cfg.NumSequences; s++ {
		window := cfg
		if cfg.LocalityWindow > 0 && cfg.LocalityWindow < cfg.AddrSize {
			nWin := cfg.AddrSize / cfg.LocalityWindow
			w := uint32(rng.Int63n(int64(nWin)))
			window.AddrBase = cfg.AddrBase + w*cfg.LocalityWindow
			window.AddrSize = cfg.LocalityWindow
		}
		pairs := cfg.PairsMin + rng.Intn(cfg.PairsMax-cfg.PairsMin+1)
		ops := make([]ahb.Op, 0, 2*pairs)
		// One write-data backing array per sequence; each write gets a
		// cap-limited window of it, so no op can append into its neighbor.
		buf := make([]uint32, pairs*beats)
		for p := 0; p < pairs; p++ {
			addr := window.randAddr(rng, beats)
			data := buf[p*beats : (p+1)*beats : (p+1)*beats]
			for b := range data {
				data[b] = gen.next()
			}
			ops = append(ops,
				ahb.Op{Kind: ahb.OpWrite, Addr: addr, Data: data, Size: ahb.Size32},
				ahb.Op{Kind: ahb.OpRead, Addr: addr, Beats: beats, Size: ahb.Size32},
			)
		}
		idle := cfg.IdleMin
		if cfg.IdleMax > cfg.IdleMin {
			idle += rng.Intn(cfg.IdleMax - cfg.IdleMin + 1)
		}
		seqs = append(seqs, ahb.Sequence{Ops: ops, IdleAfter: idle})
	}
	return seqs, nil
}

// GenerateAll generates one script per configuration, in order.
func GenerateAll(cfgs []Config) ([][]ahb.Sequence, error) {
	scripts := make([][]ahb.Sequence, len(cfgs))
	for i, cfg := range cfgs {
		seqs, err := Generate(cfg)
		if err != nil {
			return nil, err
		}
		scripts[i] = seqs
	}
	return scripts, nil
}

// PerMaster expands cfgs to exactly one configuration per master for n
// masters: master m takes cfgs[m], and masters beyond the list reuse the
// last configuration with its seed shifted by m*104729, so they draw
// independent traffic. cfgs must not be empty.
func PerMaster(cfgs []Config, n int) []Config {
	out := make([]Config, n)
	for m := range out {
		if m < len(cfgs) {
			out[m] = cfgs[m]
			continue
		}
		out[m] = cfgs[len(cfgs)-1]
		out[m].Seed += int64(m) * 104729
	}
	return out
}

// randAddr draws a word-aligned address such that a burst of the given
// length neither leaves the window nor crosses a 1 KB boundary.
func (c *Config) randAddr(rng *rand.Rand, beats int) uint32 {
	span := uint32(beats) * 4
	for {
		off := uint32(rng.Int63n(int64(c.AddrSize))) &^ 3
		if off+span > c.AddrSize {
			continue
		}
		addr := c.AddrBase + off
		if ahb.CrossesKB(addr, beats, ahb.Size32) {
			continue
		}
		return addr
	}
}

// dataGen produces write data under a pattern.
type dataGen struct {
	pattern Pattern
	rng     *rand.Rand
	state   uint32
}

func newDataGen(p Pattern, rng *rand.Rand) *dataGen {
	return &dataGen{pattern: p, rng: rng, state: rng.Uint32()}
}

func (g *dataGen) next() uint32 {
	switch g.pattern {
	case PatternLowActivity:
		flips := 1 + g.rng.Intn(3)
		for i := 0; i < flips; i++ {
			g.state ^= 1 << uint(g.rng.Intn(32))
		}
		return g.state
	case PatternCounter:
		g.state++
		return g.state
	default:
		g.state = g.rng.Uint32()
		return g.state
	}
}

// TotalBeats returns the number of data beats in a script (both
// directions), for sizing simulations.
func TotalBeats(seqs []ahb.Sequence) int {
	n := 0
	for _, s := range seqs {
		for _, op := range s.Ops {
			switch op.Kind {
			case ahb.OpWrite:
				if len(op.Data) == 0 {
					n++
				} else {
					n += len(op.Data)
				}
			case ahb.OpRead:
				if op.Beats <= 0 {
					n++
				} else {
					n += op.Beats
				}
			}
		}
	}
	return n
}
