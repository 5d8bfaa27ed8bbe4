package ahb

import (
	"reflect"
	"testing"
)

// TestMemorySlaveStateListsWrittenWords: a slave snapshot lists exactly
// the written words in address order, explicitly written zeros included,
// and restores onto a fresh slave unchanged.
func TestMemorySlaveStateListsWrittenWords(t *testing.T) {
	ts := newTestSystem(t, 1, 1, 1, PolicyFixed)
	ts.masters[0].Enqueue(Sequence{Ops: []Op{
		{Kind: OpWrite, Addr: 0x10, Data: []uint32{0}, Size: Size32},
		{Kind: OpWrite, Addr: 0x8, Data: []uint32{5}, Size: Size32},
		{Kind: OpRead, Addr: 0x40, Size: Size32},
	}})
	ts.slaves[0].Poke(0xffc, 0)
	ts.run(t, 30)
	st := ts.slaves[0].CaptureState()
	want := []MemCell{{Addr: 2, Val: 5}, {Addr: 4, Val: 0}, {Addr: 0x3ff, Val: 0}}
	if !reflect.DeepEqual(st.Mem, want) {
		t.Fatalf("captured memory %+v, want %+v", st.Mem, want)
	}
	twin := newTestSystem(t, 1, 1, 1, PolicyFixed)
	twin.slaves[0].RestoreState(st)
	if got := twin.slaves[0].CaptureState(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored state %+v, want %+v", got, st)
	}
	if twin.slaves[0].Peek(0x8) != 5 {
		t.Fatalf("restored word 0x8 = %#x, want 5", twin.slaves[0].Peek(0x8))
	}
}
