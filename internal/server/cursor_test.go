package server

import (
	"testing"
	"time"
)

// TestSweepIdleDoesNotBlockOnCursor: the idle sweeper reads each cursor's
// last-read time without taking the cursor's lock, so a /next holding
// that lock through a slow page write cannot stall the cursor table —
// and with it every /next, /query and /stats — behind the sweep.
func TestSweepIdleDoesNotBlockOnCursor(t *testing.T) {
	now := time.Now()
	tbl := newCursorTable(4)
	busy := &cursor{id: "busy"}
	busy.touch(now.Add(-time.Hour))
	fresh := &cursor{id: "fresh"}
	fresh.touch(now)
	tbl.add(busy)
	tbl.add(fresh)

	busy.mu.Lock() // a /next writing a page to a slow client
	swept := make(chan []*cursor, 1)
	go func() { swept <- tbl.sweepIdle(now, time.Minute) }()
	var got []*cursor
	select {
	case got = <-swept:
	case <-time.After(50 * time.Millisecond):
		// Still sweeping: if it waits on busy.mu while holding the table
		// lock, the get below times out.
	}

	lookedUp := make(chan bool, 1)
	go func() { _, ok := tbl.get("fresh"); lookedUp <- ok }()
	select {
	case ok := <-lookedUp:
		if !ok {
			t.Error("fresh cursor missing from the table after the sweep")
		}
	case <-time.After(200 * time.Millisecond):
		t.Error("cursors.get blocked behind the idle sweep while a cursor lock was held")
	}
	busy.mu.Unlock()

	if got == nil {
		got = <-swept
	}
	if len(got) != 1 || got[0] != busy {
		t.Fatalf("swept %d cursors, want only the idle one", len(got))
	}
	if n := tbl.len(); n != 1 {
		t.Fatalf("table holds %d cursors after the sweep, want 1", n)
	}
}
