package runtime

import (
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
)

func TestSwapOutPatchesEscapesAndRegisters(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	alloc := base + 128
	if err := rt.TrackAlloc(alloc, 512); err != nil {
		t.Fatal(err)
	}
	loc := base + 2*kernel.PageSize
	k.Mem.Store64(loc, alloc+40)
	rt.TrackEscape(loc, alloc+40)
	rt.Flush()

	world := &fakeWorld{regs: []*fakeRegs{{vals: []uint64{alloc + 64, 777}}}}
	rt.SetWorld(world)

	slot, err := rt.SwapOut(alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Escape and register became decodable poison.
	pv := k.Mem.Load64(loc)
	s, off, ok := DecodeSwapPoison(pv)
	if !ok || s != slot || off != 40 {
		t.Fatalf("escape poison = %#x (slot %d off %d ok %v)", pv, s, off, ok)
	}
	if s, off, ok := DecodeSwapPoison(world.regs[0].vals[0]); !ok || s != slot || off != 64 {
		t.Fatalf("register poison wrong: %#x", world.regs[0].vals[0])
	}
	if world.regs[0].vals[1] != 777 {
		t.Error("unrelated register clobbered")
	}
	// Allocation gone from the table; data zeroed.
	if rt.Table.Covering(alloc) != nil {
		t.Error("swapped-out allocation still tracked")
	}
	if got := k.Mem.Load64(alloc + 40); got != 0 {
		t.Error("swapped-out bytes not reclaimed")
	}

	// Swap back in at a new location.
	newBase := base + 3*kernel.PageSize
	if err := rt.SwapIn(slot, newBase); err != nil {
		t.Fatal(err)
	}
	if got := k.Mem.Load64(loc); got != newBase+40 {
		t.Errorf("escape after swap-in = %#x, want %#x", got, newBase+40)
	}
	if got := world.regs[0].vals[0]; got != newBase+64 {
		t.Errorf("register after swap-in = %#x, want %#x", got, newBase+64)
	}
	if a := rt.Table.Covering(newBase + 10); a == nil || a.EscapeCount() != 1 {
		t.Error("allocation not reconstructed with its escapes")
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// Double swap-in must fail.
	if err := rt.SwapIn(slot, newBase); err == nil {
		t.Error("swap-in of consumed slot succeeded")
	}
}

func TestSwapInterleavedWithPageMove(t *testing.T) {
	// The poisoned escape LOCATION itself lives on a page the kernel then
	// moves; swap-in afterwards must patch the relocated location.
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(6*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	victim := base + 64 // allocation to swap out
	if err := rt.TrackAlloc(victim, 256); err != nil {
		t.Fatal(err)
	}
	// holder: a tracked allocation on another page holding the pointer.
	holderPage := base + 3*kernel.PageSize
	if err := rt.TrackAlloc(holderPage, 1024); err != nil {
		t.Fatal(err)
	}
	loc := holderPage + 16
	k.Mem.Store64(loc, victim+8)
	rt.TrackEscape(loc, victim+8)
	rt.Flush()

	slot, err := rt.SwapOut(victim)
	if err != nil {
		t.Fatal(err)
	}

	// Kernel moves the holder's page while the victim is swapped out.
	res, err := p.RequestMove(holderPage, 1)
	if err != nil {
		t.Fatal(err)
	}
	movedLoc := loc - res.Src + res.Dst
	if s, _, ok := DecodeSwapPoison(k.Mem.Load64(movedLoc)); !ok || s != slot {
		t.Fatalf("moved location lost its poison: %#x", k.Mem.Load64(movedLoc))
	}

	// Swap back in: the RELOCATED location must be patched.
	newBase := base + 5*kernel.PageSize
	if err := rt.SwapIn(slot, newBase); err != nil {
		t.Fatal(err)
	}
	if got := k.Mem.Load64(movedLoc); got != newBase+8 {
		t.Errorf("relocated escape after swap-in = %#x, want %#x", got, newBase+8)
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSwapInAfterCompactionMoveOfEscapeHolder(t *testing.T) {
	// The defragmentation daemon compacts memory while allocations sit in
	// swap: SwapOut a victim, then move the NEIGHBORING allocation that
	// holds the victim's (now poisoned) pointer with an allocation-
	// granularity compaction move. SwapIn must patch the escape at its
	// post-compaction location — and the poison must survive the move
	// verbatim (a poison value is not a heap pointer, so the move's
	// escape-patch pass must leave it alone).
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(6*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	victim := base // page-aligned victim allocation
	if err := rt.TrackAlloc(victim, 256); err != nil {
		t.Fatal(err)
	}
	holder := base + kernel.PageSize
	if err := rt.TrackAlloc(holder, 512); err != nil {
		t.Fatal(err)
	}
	loc := holder + 24
	k.Mem.Store64(loc, victim+8)
	rt.TrackEscape(loc, victim+8)
	// The holder is itself escaped (so the compaction move has real escape
	// work) — track the self-referential style used by linked structures.
	selfLoc := base + 4*kernel.PageSize
	if err := rt.TrackAlloc(selfLoc, 64); err != nil {
		t.Fatal(err)
	}
	k.Mem.Store64(selfLoc, holder+24)
	rt.TrackEscape(selfLoc, holder+24)
	rt.Flush()

	slot, err := rt.SwapOut(victim)
	if err != nil {
		t.Fatal(err)
	}
	poison := k.Mem.Load64(loc)
	if s, off, ok := DecodeSwapPoison(poison); !ok || s != slot || off != 8 {
		t.Fatalf("escape not poisoned: %#x", poison)
	}

	// Compact: move the holder allocation to the far end of the region.
	dst := base + 5*kernel.PageSize
	bd, err := rt.MoveAllocationTo(holder, dst)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ExpandCycles != 0 {
		t.Errorf("allocation-granularity move charged expand cycles (%d)", bd.ExpandCycles)
	}
	movedLoc := loc - holder + dst
	if got := k.Mem.Load64(movedLoc); got != poison {
		t.Fatalf("poison corrupted by compaction move: %#x, want %#x", got, poison)
	}
	// The pointer TO the moved location was patched forward.
	if got := k.Mem.Load64(selfLoc); got != movedLoc {
		t.Fatalf("holder escape not patched: %#x, want %#x", got, movedLoc)
	}

	// Swap back in: the swap record must have followed the location move.
	newBase := base + 3*kernel.PageSize
	if err := rt.SwapIn(slot, newBase); err != nil {
		t.Fatal(err)
	}
	if got := k.Mem.Load64(movedLoc); got != newBase+8 {
		t.Errorf("post-compaction escape after swap-in = %#x, want %#x", got, newBase+8)
	}
	// The stale pre-move location must NOT have been written.
	if got := k.Mem.Load64(loc); got != 0 {
		t.Errorf("swap-in wrote through the stale location: %#x", got)
	}
	if a := rt.Table.Covering(newBase); a == nil || a.EscapeCount() != 1 {
		t.Error("swapped-in allocation missing its escape")
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSwapInLeavesAnOverwrittenLocationAlone: a location held a pointer into
// A when A was swapped out; while A is out, a tracked store overwrites it
// with a pointer to B. The swap-in patches by value, as every move does, so
// the location keeps pointing at B, and the escape is B's.
func TestSwapInLeavesAnOverwrittenLocationAlone(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	must(t, err)
	a, b := base, base+kernel.PageSize
	must(t, rt.TrackAlloc(a, 256))
	must(t, rt.TrackAlloc(b, 256))
	loc := base + 2*kernel.PageSize
	k.Mem.Store64(loc, a+8)
	rt.TrackEscape(loc, a+8)
	rt.Flush()

	slot, err := rt.SwapOut(a)
	must(t, err)
	k.Mem.Store64(loc, b+16)
	rt.TrackEscape(loc, b+16)
	rt.Flush()

	newBase := base + 3*kernel.PageSize
	must(t, rt.SwapIn(slot, newBase))
	if got := k.Mem.Load64(loc); got != b+16 {
		t.Errorf("swap-in rewrote the overwritten location: %#x, want B+16 = %#x", got, b+16)
	}
	if got, _ := rt.Table.EscapeTarget(loc); got == nil || got.Base != b {
		t.Errorf("the location escapes into %v, want B at %#x", got, b)
	}
	if got := rt.Table.Covering(newBase); got == nil || got.EscapeCount() != 0 {
		t.Errorf("the swapped-in allocation is %v, want no escapes", got)
	}
	must(t, rt.Table.CheckInvariants())
}

// TestSwapKeepsInnerEscapes: A holds a pointer to B at A+16. The escape's
// location goes out with A and comes back with it: after a round trip to A',
// a move of B patches A'+16; and a move of B while A is out again patches
// the word in A's slot, which the next swap-in brings back.
func TestSwapKeepsInnerEscapes(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(8*kernel.PageSize, guard.PermRW)
	must(t, err)
	a, b := base, base+kernel.PageSize
	must(t, rt.TrackAlloc(a, 256))
	must(t, rt.TrackAlloc(b, 256))
	k.Mem.Store64(a+16, b+8)
	rt.TrackEscape(a+16, b+8)
	rt.Flush()

	slot, err := rt.SwapOut(a)
	must(t, err)
	a1 := base + 2*kernel.PageSize
	must(t, rt.SwapIn(slot, a1))
	b1 := base + 3*kernel.PageSize
	_, err = rt.MoveAllocationTo(b, b1)
	must(t, err)
	if got := k.Mem.Load64(a1 + 16); got != b1+8 {
		t.Errorf("after a swap round trip of A and a move of B, A'+16 = %#x, want %#x", got, b1+8)
	}

	slot, err = rt.SwapOut(a1)
	must(t, err)
	b2 := base + 4*kernel.PageSize
	_, err = rt.MoveAllocationTo(b1, b2)
	must(t, err)
	a2 := base + 5*kernel.PageSize
	must(t, rt.SwapIn(slot, a2))
	if got := k.Mem.Load64(a2 + 16); got != b2+8 {
		t.Errorf("after B moved while A was out, A''+16 = %#x, want %#x", got, b2+8)
	}
	if got, _ := rt.Table.EscapeTarget(a2 + 16); got == nil || got.Base != b2 {
		t.Errorf("A''+16 escapes into %v, want B at %#x", got, b2)
	}
	must(t, rt.Table.CheckInvariants())
}

// TestSwapOfAPointerAcrossTheEnd: a pointer stored 4 bytes before an
// allocation's end is an escape located inside it. With the allocation
// swapped out, a move of the pointer's target patches the word in the slot,
// whose buffer holds the whole word.
func TestSwapOfAPointerAcrossTheEnd(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	must(t, err)
	a, b := base, base+kernel.PageSize
	must(t, rt.TrackAlloc(a, 256))
	must(t, rt.TrackAlloc(b, 256))
	k.Mem.Store64(a+252, b)
	rt.TrackEscape(a+252, b)
	rt.Flush()
	slot, err := rt.SwapOut(a)
	must(t, err)
	_, err = rt.MoveAllocationTo(b, base+2*kernel.PageSize)
	must(t, err)
	must(t, rt.SwapIn(slot, a))
	if got := k.Mem.Load64(a+252) & 0xFFFFFFFF; got != (base+2*kernel.PageSize)&0xFFFFFFFF {
		t.Errorf("the word's low half after the round trip = %#x, want the moved target's", got)
	}
	must(t, rt.Table.CheckInvariants())
}

func TestSwapOutRejectsOversizedAndUntracked(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	if _, err := rt.SwapOut(0x9999); err == nil {
		t.Error("swap-out of untracked address succeeded")
	}
	if err := rt.TrackAlloc(0x40000, maxSwapLen+16); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.SwapOut(0x40000); err == nil {
		t.Error("swap-out of oversized allocation succeeded")
	}
	if _, err := rt.SwappedLen(99); err == nil {
		t.Error("SwappedLen of bad slot succeeded")
	}
	if err := rt.SwapIn(99, 0x50000); err == nil {
		t.Error("SwapIn of bad slot succeeded")
	}
}

// TestMoveRefusesATrackedDestination: an allocation move or a swap-in whose
// destination overlaps a tracked allocation — another one, or the moving one
// itself — fails before it mutates anything, leaving the table whole.
func TestMoveRefusesATrackedDestination(t *testing.T) {
	_, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	must(t, err)
	a, b := base, base+kernel.PageSize
	must(t, rt.TrackAlloc(a, 256))
	must(t, rt.TrackAlloc(b, 256))
	for _, dst := range []uint64{b + 128, a + 64} {
		if _, err := rt.MoveAllocationTo(a, dst); err == nil {
			t.Errorf("an allocation move of [%#x,+256) onto %#x succeeded", a, dst)
		}
	}
	slot, err := rt.SwapOut(a)
	must(t, err)
	if err := rt.SwapIn(slot, b-128); err == nil {
		t.Errorf("a swap-in onto %#x, 128 bytes below a tracked allocation, succeeded", b-128)
	}
	must(t, rt.SwapIn(slot, a))
	if rt.Stats.Moves.Get() != 0 || rt.Stats.MoveRollbacks.Get() != 0 {
		t.Errorf("refused moves counted %d moves and %d rollbacks, want none", rt.Stats.Moves.Get(), rt.Stats.MoveRollbacks.Get())
	}
	must(t, rt.Table.CheckInvariants())
}

func TestMoveVetoOnImpossibleDestination(t *testing.T) {
	// When the kernel cannot grant a destination (memory exhausted), the
	// negotiation is vetoed and the world resumes consistently.
	k := kernel.New(1 << 16) // 16 pages only
	p := k.NewProcess()
	rt := New(k.Mem, nil, nil)
	p.Handler = rt
	base, err := p.GrantRegion(15*kernel.PageSize, guard.PermRW) // all 15 usable pages
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TrackAlloc(base+8, 64); err != nil {
		t.Fatal(err)
	}
	// No free page remains: the move must fail cleanly.
	if _, err := p.RequestMove(base, 1); err == nil {
		t.Fatal("move succeeded with no free destination")
	}
	if k.Stats.MoveVetoes.Get() != 1 {
		t.Errorf("vetoes = %d, want 1", k.Stats.MoveVetoes.Get())
	}
	// The source must still be intact and accessible.
	if !p.Regions.Check(base, 8, guard.PermRead) {
		t.Error("vetoed move lost the source region")
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
