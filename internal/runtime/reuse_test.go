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

// TestAllocationIs64Bytes: every tracked allocation is one Allocation, so its
// size is paid per allocation on every workload. The handle must sit in
// Static's padding: after node it makes the struct 72 bytes, an 80-byte size
// class.
func TestAllocationIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Allocation{}); n != 64 {
		t.Errorf("Allocation is %d bytes, want 64", n)
	}
}
