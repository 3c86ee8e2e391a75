package runtime

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/kernel"
)

// allocSnap is one allocation's identity-free view for state comparison.
type allocSnap struct {
	Base, Len uint64
	Static    bool
	Escapes   []uint64
}

// machineSnap captures everything a rolled-back move must restore
// bit-identically: the physical memory image, the swap slots' bytes, the
// region set, the allocation table with its escape sets and its reverse
// index (each location's allocation base), the register file, and the
// kernel's free-frame and owned-page counts.
type machineSnap struct {
	MemSum     uint64
	Slots      [][]byte
	Regions    []guard.Region
	Allocs     []allocSnap
	Index      map[uint64]uint64
	Regs       []uint64
	FreePages  uint64
	OwnedPages int
}

func snapshot(k *kernel.Kernel, p *kernel.Process, rt *Runtime, regs *fakeRegs) machineSnap {
	s := machineSnap{
		MemSum:     k.Mem.Checksum(),
		Regions:    append([]guard.Region(nil), p.Regions.Regions()...),
		Regs:       append([]uint64(nil), regs.vals...),
		FreePages:  k.Alloc.FreePages(),
		OwnedPages: k.OwnedPageCount(),
		Index:      map[uint64]uint64{},
	}
	for _, b := range rt.swapSlots {
		s.Slots = append(s.Slots, slices.Clone(b))
	}
	for page, b := range rt.Table.pages {
		b.each(page*kernel.PageSize, func(loc uint64, r escRef) { s.Index[loc] = rt.Table.slot(r.h()).Base })
	}
	rt.Table.ForEach(func(a *Allocation) bool {
		locs := rt.Table.escapeLocs(a)
		sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
		s.Allocs = append(s.Allocs, allocSnap{Base: a.Base, Len: a.Len, Static: a.Static, Escapes: locs})
		return true
	})
	sort.Slice(s.Allocs, func(i, j int) bool { return s.Allocs[i].Base < s.Allocs[j].Base })
	return s
}

// buildMoveFixture assembles the TestHandleMovePatchesEverything scene:
// escapes outside, inside, and across the to-be-moved page, plus a
// pointer-bearing register.
func buildMoveFixture(t *testing.T) (*kernel.Kernel, *kernel.Process, *Runtime, *fakeRegs, uint64) {
	t.Helper()
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	allocA := base + 64
	if err := rt.TrackAlloc(allocA, 512); err != nil {
		t.Fatal(err)
	}
	allocB := base + 3*kernel.PageSize
	if err := rt.TrackAlloc(allocB, 128); err != nil {
		t.Fatal(err)
	}
	outsideLoc := base + 2*kernel.PageSize
	insideLoc := allocA + 16
	locToB := allocA + 32
	k.Mem.Store64(outsideLoc, allocA+100)
	k.Mem.Store64(insideLoc, allocA+200)
	k.Mem.Store64(locToB, allocB+8)
	rt.TrackEscape(outsideLoc, allocA+100)
	rt.TrackEscape(insideLoc, allocA+200)
	rt.TrackEscape(locToB, allocB+8)
	rt.Flush()
	regs := &fakeRegs{vals: []uint64{allocA + 300, 12345, allocB}}
	rt.SetWorld(&fakeWorld{regs: []*fakeRegs{regs}})
	return k, p, rt, regs, base
}

// fixtureKinds are the four move kinds the rollback tests run.
var fixtureKinds = []moveKind{kindPage, kindAlloc, kindSwapOut, kindSwapIn}

// kindName names a move kind in subtest names.
func kindName(kind moveKind) string {
	return [...]string{"page", "allocation", "swap-out", "swap-in"}[kind]
}

// moveFixture is buildMoveFixture made ready for a move of kind — for a
// swap-in, allocation A (base+64) is swapped out to slot 0 first — and A.
func moveFixture(t *testing.T, kind moveKind) (*kernel.Kernel, *kernel.Process, *Runtime, *fakeRegs, uint64, *Allocation) {
	k, p, rt, regs, base := buildMoveFixture(t)
	a := rt.Table.Covering(base + 64)
	if kind == kindSwapIn {
		if slot, err := rt.SwapOut(base + 64); err != nil || slot != 0 {
			t.Fatalf("swap-out to slot %d: %v", slot, err)
		}
	}
	return k, p, rt, regs, base, a
}

// fixtureMove moves allocation A by kind: a kernel move of its page, an
// allocation move of A alone to the empty page at base+PageSize, a swap-out,
// or a swap-in of A back to base+64.
func fixtureMove(p *kernel.Process, rt *Runtime, base uint64, kind moveKind) error {
	var err error
	switch kind {
	case kindPage:
		_, err = p.RequestMove(base, 1)
	case kindAlloc:
		_, err = rt.MoveAllocationTo(base+64, base+kernel.PageSize)
	case kindSwapOut:
		_, err = rt.SwapOut(base + 64)
	case kindSwapIn:
		err = rt.SwapIn(0, base+64)
	}
	return err
}

// TestAbortAtEveryStepBoundaryRollsBack forces a mid-move abort at each
// of the checked Fig-8 step boundaries in turn — four for a page move, the
// three after destination negotiation for an allocation move and a swap,
// whose destination exists from the start — and requires the machine —
// memory image, swap slots, region set, allocation table, escape sets and
// reverse index, registers, free frames, owned pages — to be bit-identical
// to the pre-move snapshot. The final armed fault exhausted, the same move
// must then succeed.
func TestAbortAtEveryStepBoundaryRollsBack(t *testing.T) {
	boundaries := []string{
		"before destination negotiation",
		"after escape patch",
		"after register patch",
		"before data copy",
	}
	for _, kind := range fixtureKinds {
		for i, name := range boundaries {
			// nth is the boundary's position among the move's checked ones.
			nth := i + 1
			if kind != kindPage {
				if i == 0 {
					continue
				}
				nth = i
			}
			sub := name // a page move's subtests keep their first names
			if kind != kindPage {
				sub = kindName(kind) + " " + name
			}
			t.Run(sub, func(t *testing.T) {
				k, p, rt, regs, base, a := moveFixture(t, kind)
				inj := fault.New(1, nil)
				rt.SetInjector(inj)

				before := snapshot(k, p, rt, regs)
				vetoesBefore := k.Stats.MoveVetoes.Get()

				inj.Arm(fault.MoveAbort, nth)
				err := fixtureMove(p, rt, base, kind)
				if err == nil {
					t.Fatalf("armed abort at %q did not fail the move", name)
				}
				if !fault.Injected(err) {
					t.Fatalf("move error lost the injected fault: %v", err)
				}
				if !strings.Contains(err.Error(), name) {
					t.Errorf("abort fired at the wrong boundary: %v", err)
				}

				after := snapshot(k, p, rt, regs)
				if !reflect.DeepEqual(before, after) {
					t.Errorf("state differs after rollback:\n before %+v\n after  %+v", before, after)
				}
				if err := rt.Table.CheckInvariants(); err != nil {
					t.Error(err)
				}
				// A page move's abort is a kernel veto; no other kind has a
				// kernel request to veto.
				wantVetoes := vetoesBefore
				if kind == kindPage {
					wantVetoes++
				}
				if got := k.Stats.MoveVetoes.Get(); got != wantVetoes {
					t.Errorf("move vetoes = %d, want %d", got, wantVetoes)
				}
				// A page move's first boundary aborts before anything
				// mutates; all later ones must roll back a real transaction.
				wantRollbacks := uint64(1)
				if nth == 1 && kind == kindPage {
					wantRollbacks = 0
				}
				if got := rt.Stats.MoveRollbacks.Get(); got != wantRollbacks {
					t.Errorf("rollbacks = %d, want %d", got, wantRollbacks)
				}

				// Fault exhausted: the identical request must now succeed and
				// actually move the allocation.
				from := a.Base
				if err := fixtureMove(p, rt, base, kind); err != nil {
					t.Fatalf("move after abort: %v", err)
				}
				if a.Base == from {
					t.Error("successful move did not relocate the allocation")
				}
				if err := rt.Table.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestPatchFailureRollsBackPatchedEscapes fails the patch of the second
// escape location: the first, already-patched escape must be restored to
// its pre-move value, under every kind of move.
func TestPatchFailureRollsBackPatchedEscapes(t *testing.T) {
	for _, kind := range fixtureKinds {
		t.Run(kindName(kind), func(t *testing.T) {
			k, p, rt, regs, base, _ := moveFixture(t, kind)
			inj := fault.New(1, nil)
			rt.SetInjector(inj)

			before := snapshot(k, p, rt, regs)
			vetoesBefore := k.Stats.MoveVetoes.Get()
			inj.Arm(fault.PatchFail, 2)
			if err := fixtureMove(p, rt, base, kind); err == nil || !fault.Injected(err) {
				t.Fatalf("armed patch failure did not abort the move: %v", err)
			}
			after := snapshot(k, p, rt, regs)
			if !reflect.DeepEqual(before, after) {
				t.Errorf("state differs after patch-failure rollback:\n before %+v\n after  %+v", before, after)
			}
			if rt.Stats.MoveRollbacks.Get() != 1 {
				t.Errorf("rollbacks = %d, want 1", rt.Stats.MoveRollbacks.Get())
			}
			wantVetoes := uint64(0)
			if kind == kindPage {
				wantVetoes = 1
			}
			if got := k.Stats.MoveVetoes.Get() - vetoesBefore; got != wantVetoes {
				t.Errorf("rollback counted %d kernel vetoes, want %d", got, wantVetoes)
			}
			if err := rt.Table.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSwapInjectionIsRetrySafe verifies a failed swap-out leaves the
// allocation untouched and a failed swap-in leaves the slot intact, so
// both simply succeed on retry.
func TestSwapInjectionIsRetrySafe(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TrackAlloc(base, kernel.PageSize); err != nil {
		t.Fatal(err)
	}
	k.Mem.Store64(base, 0xBEEF)
	inj := fault.New(1, nil)
	rt.SetInjector(inj)

	inj.Arm(fault.SwapOutIO, 1)
	if _, err := rt.SwapOut(base); err == nil || !fault.Injected(err) {
		t.Fatalf("armed swap-out failure: %v", err)
	}
	if rt.Table.Covering(base) == nil {
		t.Fatal("failed swap-out lost the allocation")
	}
	slot, err := rt.SwapOut(base)
	if err != nil {
		t.Fatalf("swap-out retry: %v", err)
	}

	inj.Arm(fault.SwapInIO, 1)
	if err := rt.SwapIn(slot, base); err == nil || !fault.Injected(err) {
		t.Fatalf("armed swap-in failure: %v", err)
	}
	if _, err := rt.SwappedLen(slot); err != nil {
		t.Fatalf("failed swap-in corrupted the slot: %v", err)
	}
	if err := rt.SwapIn(slot, base); err != nil {
		t.Fatalf("swap-in retry: %v", err)
	}
	if got := k.Mem.Load64(base); got != 0xBEEF {
		t.Errorf("data after swap round trip = %#x, want 0xBEEF", got)
	}
}

// TestFlushRetriesOnInjectedFailure verifies an injected flush failure
// only delays the drain — the escape still lands, with the retry counted.
func TestFlushRetriesOnInjectedFailure(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	if err := rt.TrackAlloc(0x10000, 256); err != nil {
		t.Fatal(err)
	}
	inj := fault.New(1, nil)
	rt.SetInjector(inj)
	inj.Arm(fault.FlushFail, 1)
	rt.TrackEscape(0x30000, 0x10000)
	rt.Flush()
	if rt.Table.EscapeCount() != 1 {
		t.Error("escape lost across a failed flush")
	}
	if rt.Stats.FlushRetries.Get() == 0 {
		t.Error("flush retry not counted")
	}
}
