// Package wordmem is the backing store shared by the bus memory slaves
// (AHB MemorySlave, RetrySlave and SplitSlave, and the ASB MemorySlave): a
// sparse, word-addressed, zero-default memory kept in 1 KiB pages.
//
// Pages are allocated on the first write into them and never freed, so a
// slave stops allocating once its working set is paged in: steady-state
// loads and stores are allocation-free. Each page records which of its
// words were written, so a snapshot can list exactly the written words —
// explicitly written zeros included — the way a map-backed memory would.
package wordmem

import (
	"math/bits"
	"sort"
)

const (
	pageShift = 8 // 256 words = 1 KiB per page
	pageWords = 1 << pageShift
	pageMask  = pageWords - 1

	// maxDirPages bounds the dense page directory (4 MiB of address span,
	// a 32 KiB directory). Pages outside it live in a map, so a sparse
	// access pattern costs hashing instead of a huge directory.
	maxDirPages = 4096
)

type page struct {
	words   [pageWords]uint32
	written [pageWords / 64]uint64
}

// Memory is a word-addressed memory. The zero value is empty and ready to
// use.
type Memory struct {
	base uint32  // page index of dir[0]
	dir  []*page // dense directory over pages [base, base+len(dir))
	far  map[uint32]*page
	n    int // written words
}

// lookup returns the page with index idx, or nil when none was written.
func (m *Memory) lookup(idx uint32) *page {
	if i := idx - m.base; i < uint32(len(m.dir)) {
		return m.dir[i]
	}
	if m.far != nil {
		return m.far[idx]
	}
	return nil
}

// Load returns the word at word address w; never-written words read 0.
func (m *Memory) Load(w uint32) uint32 {
	if p := m.lookup(w >> pageShift); p != nil {
		return p.words[w&pageMask]
	}
	return 0
}

// Store writes v at word address w and marks the word written.
func (m *Memory) Store(w, v uint32) {
	p := m.lookup(w >> pageShift)
	if p == nil {
		p = m.newPage(w >> pageShift)
	}
	i := w & pageMask
	p.words[i] = v
	if bit := uint64(1) << (i & 63); p.written[i>>6]&bit == 0 {
		p.written[i>>6] |= bit
		m.n++
	}
}

// newPage allocates page idx, in the dense directory when the directory
// can cover it within maxDirPages, else in the far map.
func (m *Memory) newPage(idx uint32) *page {
	p := new(page)
	switch {
	case len(m.dir) == 0:
		m.base, m.dir = idx, []*page{p}
	case idx >= m.base && uint64(idx-m.base) < maxDirPages:
		for uint32(len(m.dir)) <= idx-m.base {
			m.dir = append(m.dir, nil)
		}
		m.dir[idx-m.base] = p
	case idx < m.base && uint64(m.base-idx)+uint64(len(m.dir)) <= maxDirPages:
		grown := make([]*page, int(m.base-idx)+len(m.dir))
		copy(grown[m.base-idx:], m.dir)
		m.base, m.dir = idx, grown
		m.dir[0] = p
	default:
		if m.far == nil {
			m.far = make(map[uint32]*page)
		}
		m.far[idx] = p
	}
	return p
}

// Len returns the number of written words.
func (m *Memory) Len() int { return m.n }

// Each calls fn for every written word in ascending word-address order.
func (m *Memory) Each(fn func(w, v uint32)) {
	type indexed struct {
		idx uint32
		p   *page
	}
	pages := make([]indexed, 0, len(m.dir)+len(m.far))
	for i, p := range m.dir {
		if p != nil {
			pages = append(pages, indexed{m.base + uint32(i), p})
		}
	}
	for idx, p := range m.far {
		pages = append(pages, indexed{idx, p})
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i].idx < pages[j].idx })
	for _, ip := range pages {
		for k, set := range ip.p.written {
			for set != 0 {
				i := uint32(k*64 + bits.TrailingZeros64(set))
				set &= set - 1
				fn(ip.idx<<pageShift|i, ip.p.words[i])
			}
		}
	}
}

// Reset empties the memory.
func (m *Memory) Reset() { *m = Memory{} }
