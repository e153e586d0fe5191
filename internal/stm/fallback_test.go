package stm

import (
	"testing"

	"tmbp/internal/hash"
	"tmbp/internal/otable"
)

// TestSerialAcquireSkipsBoardHoles drains a board with a registration hole.
// Concurrent NewThreads may publish out of ID order, so the board can hold
// a nil entry below a registered thread; a serial-fallback drain racing
// such a registration must skip the hole, as Stats does, rather than
// dereference it.
func TestSerialAcquireSkipsBoardHoles(t *testing.T) {
	rt, err := New(Config{Table: otable.NewTagged(hash.NewMask(64)), Memory: NewMemory(8), FallbackAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	th := rt.NewThread()
	idle := &threadCounters{} // registered, no attempt in flight
	board := []*threadCounters{th.ctr, nil, idle}
	rt.board.Store(&board)
	if err := rt.serialAcquire(th); err != nil {
		t.Fatalf("serialAcquire = %v, want the token", err)
	}
	if !rt.serialBusy() {
		t.Fatal("serial token not held after serialAcquire")
	}
	rt.serialRelease()
	if rt.serialBusy() {
		t.Fatal("serial token still held after serialRelease")
	}
}
