package runtime

import (
	"testing"
	"unsafe"

	"carat/internal/guard"
	"carat/internal/kernel"
)

// What a move or a swap allocates (DESIGN.md "Host cost of a move"): past the
// runtime's first one, nothing but what it keeps. The move state, undo log,
// pause meter, page buckets, tree nodes and scratch slices are reused.

// TestPageMoveAllocatesNothing: after one warm-up move, which allocates the
// move state and the pause histograms, a page move allocates no object, a
// move listener's call included — a page of a dozen escapes, and a page
// whose every word holds one (its bucket moves whole).
func TestPageMoveAllocatesNothing(t *testing.T) {
	for name, machine := range map[string]func() (*kernel.Process, *Runtime, uint64){
		"12-escapes":  func() (*kernel.Process, *Runtime, uint64) { return pageMoveMachine(t, 1_000) },
		"512-escapes": func() (*kernel.Process, *Runtime, uint64) { return densePageMachine(t, 0, 512) },
	} {
		p, rt, page := machine()
		rt.AddMoveListener(func(src, dst, length uint64) {})
		move := func() {
			res, err := p.RequestMove(page, 1)
			if err != nil {
				t.Fatal(err)
			}
			page = res.Dst
		}
		move()
		if n := testing.AllocsPerRun(100, move); n != 0 {
			t.Errorf("%s: a page move allocates %.0f objects, want 0", name, n)
		}
		must(t, rt.Table.CheckInvariants())
	}
}

// swapMachine grants a region and tracks a 4 KB allocation at its start with
// n escapes into it, located on the region's second page.
func swapMachine(tb testing.TB, n uint64) (*kernel.Process, *Runtime, uint64) {
	_, p, rt := newTestRuntime(tb)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	must(tb, err)
	must(tb, rt.TrackAlloc(base, kernel.PageSize))
	for i := uint64(0); i < n; i++ {
		loc := base + kernel.PageSize + i*8
		rt.mem.Store64(loc, base+i*8)
		rt.TrackEscape(loc, base+i*8)
	}
	rt.Flush()
	return p, rt, base
}

// swapRoundTrip swaps the allocation at base out and back in at the same
// address.
func swapRoundTrip(tb testing.TB, rt *Runtime, base uint64) {
	slot, err := rt.SwapOut(base)
	must(tb, err)
	must(tb, rt.SwapIn(slot, base))
}

// TestSwapRoundTripReusesItsBuffer: a swap-out takes the buffer the last
// swap-in returned, and both directions move the allocation's table entry
// rather than remove and insert it, so a warm round trip allocates nothing —
// past the slot directory's amortized growth (fresh slots come first).
func TestSwapRoundTripReusesItsBuffer(t *testing.T) {
	_, rt, base := swapMachine(t, 8)
	swapRoundTrip(t, rt, base)
	const trips = 100
	if n := testing.AllocsPerRun(trips, func() { swapRoundTrip(t, rt, base) }); n != 0 {
		t.Errorf("a swap round trip of a %d-byte allocation allocates %.0f objects, want 0", kernel.PageSize, n)
	}
	if got := rt.Table.Covering(base); got == nil || got.EscapeCount() != 8 {
		t.Fatalf("after %d round trips the allocation is %v, want 8 escapes", trips, got)
	}
	must(t, rt.Table.CheckInvariants())
}

// TestSwapSlotsAreReused: a swap-out takes a fresh slot, in order, while any
// of the 65 536 the poison encoding names is unused, and then the slot the
// latest swap-in freed, so a process swaps for as long as it lives.
func TestSwapSlotsAreReused(t *testing.T) {
	_, rt, base := swapMachine(t, 1)
	for i := uint64(0); i < 70_000; i++ {
		slot, err := rt.SwapOut(base)
		must(t, err)
		if want := min(i, maxSwapSlots-1); slot != want {
			t.Fatalf("swap-out %d took slot %d, want %d", i, slot, want)
		}
		must(t, rt.SwapIn(slot, base))
	}
	if got := rt.Table.Covering(base); got == nil || got.EscapeCount() != 1 {
		t.Fatalf("after the round trips the allocation is %v, want 1 escape", got)
	}
	must(t, rt.Table.CheckInvariants())
}

// BenchmarkSwapRoundTrip swaps a 4 KB allocation with 64 escapes out and back
// in.
func BenchmarkSwapRoundTrip(b *testing.B) {
	_, rt, base := swapMachine(b, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		swapRoundTrip(b, rt, base)
	}
}

// TestMoveIgnoresSwapHistory: a move sees only what the table holds, not
// every slot the process has used. After 1 000 round trips of one allocation the process
// has 1 001 slots and one allocation swapped out — another one, whose
// poisoned escape sits on the page that then moves.
func TestMoveIgnoresSwapHistory(t *testing.T) {
	p, rt, base := swapMachine(t, 8)
	victim := base + 3*kernel.PageSize
	must(t, rt.TrackAlloc(victim, 64))
	loc := base + 2*kernel.PageSize + 40
	must(t, rt.TrackAlloc(base+2*kernel.PageSize, 64))
	rt.mem.Store64(loc, victim+8)
	rt.TrackEscape(loc, victim+8)
	rt.Flush()
	slot, err := rt.SwapOut(victim)
	must(t, err)
	for i := 0; i < 1000; i++ {
		swapRoundTrip(t, rt, base)
	}
	if len(rt.swapSlots) != 1001 {
		t.Fatalf("%d slots; want 1001", len(rt.swapSlots))
	}
	res, err := p.RequestMove(base+2*kernel.PageSize, 1)
	must(t, err)
	must(t, rt.SwapIn(slot, victim))
	if moved := loc - res.Src + res.Dst; rt.mem.Load64(moved) != victim+8 {
		t.Errorf("the escape moved to %#x holds %#x after swap-in, want %#x", moved, rt.mem.Load64(moved), victim+8)
	}
	must(t, rt.Table.CheckInvariants())
}

// TestRebaseOfRemovedAllocation: a rebase of an allocation the table no
// longer holds only updates the base: nothing is re-linked into the tree.
func TestRebaseOfRemovedAllocation(t *testing.T) {
	tb := NewAllocationTable()
	a, err := tb.Insert(0x10000, 64, false)
	must(t, err)
	tb.AddEscape(0x40008, 0x10000)
	if tb.mostEscaped() != a {
		t.Fatal("the one allocation with an escape is not picked")
	}
	if tb.Remove(0x10000) != a {
		t.Fatal("Remove did not return the allocation")
	}
	tb.Rebase([]*Allocation{a}, a.Base, 0x20000)
	if a.Base != 0x20000 || tb.Len() != 0 || tb.Covering(0x20000) != nil || tb.mostEscaped() != nil {
		t.Errorf("a rebase of a removed allocation left base %#x, %d allocations, Covering %v, pick %v",
			a.Base, tb.Len(), tb.Covering(0x20000), tb.mostEscaped())
	}
	must(t, tb.CheckInvariants())
}

// TestAllocationSlotIsAtMost88Bytes: every tracked allocation is one slab
// slot, its tree links included, so its size is paid per allocation on every
// workload — against 128 bytes when the allocation and its tree node were
// two 64-byte objects. The slot, colour and linked flag must sit in Static's
// padding.
func TestAllocationSlotIsAtMost88Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Allocation{}); n > 88 {
		t.Errorf("an allocation slot is %d bytes, want at most 88", n)
	}
	if n := unsafe.Sizeof(chunk{}); n != chunkSlots*unsafe.Sizeof(Allocation{}) {
		t.Errorf("a chunk of %d slots is %d bytes", chunkSlots, n)
	}
}

// TestTableChurnAllocatesNothing: on a warm table, tracking an allocation,
// an escape into it and its free reuses a slot, a bucket and the escape set's
// storage; and a released table's successor takes its stock — index, buckets
// and slab — so a warm Release and reuse allocates nothing either.
func TestTableChurnAllocatesNothing(t *testing.T) {
	tb := NewAllocationTable()
	_, err := tb.Insert(0x10000, 64, true)
	must(t, err)
	churn := func() {
		_, err := tb.Insert(0x20000, 64, false)
		must(t, err)
		tb.AddEscape(0x40008, 0x20010)
		tb.AddEscape(0x41000, 0x10000)
		if tb.Remove(0x20000) == nil {
			t.Fatal("Remove found nothing")
		}
		tb.RemoveEscape(0x41000)
	}
	churn()
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Errorf("an Insert, AddEscape, Remove cycle allocates %.0f objects, want 0", n)
	}
	reuse := func() {
		tb.Release()
		for i := uint64(0); i < 300; i++ { // past one chunk
			_, err := tb.Insert(0x10000+i*0x100, 64, false)
			must(t, err)
			tb.AddEscape(0x40000+i*8, 0x10000+i*0x100)
		}
	}
	reuse()
	if n := testing.AllocsPerRun(20, reuse); n != 0 {
		t.Errorf("a Release and refill of 300 allocations allocates %.0f objects, want 0", n)
	}
	must(t, tb.CheckInvariants())
}

// TestReleaseDropsALargeIndex: a released page index goes to the next table
// emptied, unless it held more than maxPooledPages pages: a map keeps the
// capacity of its most entries, and every later table would pay that to
// clear it at Release and to walk it in a move.
func TestReleaseDropsALargeIndex(t *testing.T) {
	for _, pages := range []uint64{maxPooledPages, maxPooledPages + 1} {
		tb := NewAllocationTable()
		_, err := tb.Insert(0x10000, 64, false)
		must(t, err)
		for p := uint64(0); p < pages; p++ {
			tb.AddEscape(0x100000+p*kernel.PageSize, 0x10000)
		}
		s := tb.stock
		tb.Release()
		if kept := s.pages != nil; kept != (pages <= maxPooledPages) || kept && len(s.pages) != 0 {
			t.Errorf("%d pages: the released index is kept: %v, with %d entries", pages, kept, len(s.pages))
		}
	}
}

// TestChurnKeepsOneChunk: swaptions' shape — a few long-lived allocations and
// 8 192 short-lived ones, each freed before the next — reuses the freed slot
// every time, so the slab holds one chunk, however long the churn.
func TestChurnKeepsOneChunk(t *testing.T) {
	tb := NewAllocationTable()
	for i := uint64(0); i < 3; i++ {
		_, err := tb.Insert(0x10000+i*0x1000, 0x800, false)
		must(t, err)
	}
	for i := uint64(0); i < 8192; i++ {
		base := 0x20000 + i%16*0x100
		_, err := tb.Insert(base, 0x40, false)
		must(t, err)
		tb.AddEscape(0x40000+i%512*8, base)
		tb.Remove(base)
	}
	if tb.slots != 4 || len(tb.stock.chunks) != 1 {
		t.Errorf("8 192 insert/remove pairs beside 3 allocations: %d slots in %d chunks, want 4 in 1", tb.slots, len(tb.stock.chunks))
	}
	must(t, tb.CheckInvariants())
}
