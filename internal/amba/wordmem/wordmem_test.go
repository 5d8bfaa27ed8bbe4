package wordmem

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMatchesMap drives the paged memory and a map side by side over
// dense, backward-growing and far-apart addresses (explicit zero writes
// included) and checks loads, the written-word count and the ordered
// written-word listing a snapshot is built from.
func TestMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Memory
	ref := map[uint32]uint32{}
	bases := []uint32{0x4000, 0x3000, 0x0, 0x40_0000, 0xFFFF_F000 >> 2, 0x1000_0000}
	for i := 0; i < 20000; i++ {
		w := bases[rng.Intn(len(bases))] + uint32(rng.Intn(1024))
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint32()
			if rng.Intn(4) == 0 {
				v = 0
			}
			m.Store(w, v)
			ref[w] = v
		default:
			if got, want := m.Load(w), ref[w]; got != want {
				t.Fatalf("Load(%#x) = %#x, want %#x", w, got, want)
			}
		}
	}
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	want := make([]uint32, 0, len(ref))
	for w := range ref {
		want = append(want, w)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	i := 0
	m.Each(func(w, v uint32) {
		if i >= len(want) || w != want[i] || v != ref[w] {
			t.Fatalf("Each entry %d = (%#x, %#x), want word %#x", i, w, v, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("Each listed %d words, want %d", i, len(want))
	}
	m.Reset()
	if m.Len() != 0 || m.Load(want[0]) != 0 {
		t.Fatal("Reset left words behind")
	}
}

// TestSteadyStateAllocationFree: once a page exists, loads and stores in
// it do not allocate, and loads never allocate.
func TestSteadyStateAllocationFree(t *testing.T) {
	var m Memory
	m.Store(0x100, 1)
	if n := testing.AllocsPerRun(100, func() {
		m.Store(0x1ff, m.Load(0x100)+1)
		_ = m.Load(0x12345678)
	}); n != 0 {
		t.Fatalf("%v allocations per warm access", n)
	}
}
