package runtime

import (
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
)

// TestMoveIsOneStop: a move — a kernel page move or an allocation move —
// stops the world once and resumes it once, is counted once, and records
// exactly one pause, under "move", whose length is the whole operation —
// MoveBreakdown.TotalCycles, page allocation and data copy included — and
// the only pause of any cause.
func TestMoveIsOneStop(t *testing.T) {
	for _, kind := range []moveKind{kindPage, kindAlloc} {
		t.Run(kindName(kind), func(t *testing.T) {
			k, p, rt := newTestRuntime(t)
			base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
			if err != nil {
				t.Fatal(err)
			}
			allocA := base + 64
			if err := rt.TrackAlloc(allocA, 1024); err != nil {
				t.Fatal(err)
			}
			// 24 pointers to the allocation, parked on a later page.
			for i := 0; i < 24; i++ {
				loc := base + 2*kernel.PageSize + uint64(i)*8
				val := allocA + uint64(i)*8
				k.Mem.Store64(loc, val)
				rt.TrackEscape(loc, val)
			}
			rt.Flush()
			world := &fakeWorld{regs: []*fakeRegs{{vals: []uint64{allocA + 96, 12345, allocA + 128}}}}
			rt.SetWorld(world)

			if kind == kindAlloc {
				_, err = rt.MoveAllocationTo(allocA, base+3*kernel.PageSize)
			} else {
				_, err = p.RequestMove(base, 1)
			}
			if err != nil {
				t.Fatal(err)
			}
			if world.stops != 1 || world.resumes != 1 {
				t.Errorf("move stopped the world %d times and resumed it %d times, want once each", world.stops, world.resumes)
			}
			if len(rt.MoveStats) != 1 || rt.Stats.Moves.Get() != 1 {
				t.Fatalf("move stats = %d entries, moves counted = %d", len(rt.MoveStats), rt.Stats.Moves.Get())
			}
			bd := rt.MoveStats[0]
			if bd.EscapesPatched != 24 || bd.RegsPatched != 2 {
				t.Errorf("patched %d escapes and %d registers, want 24 and 2", bd.EscapesPatched, bd.RegsPatched)
			}
			if got := rt.Stats.MoveCycles.Get(); got != bd.TotalCycles() {
				t.Errorf("move cycles counted = %d, want %d", got, bd.TotalCycles())
			}
			mv := rt.Obs.Histogram(PauseHist + ".move").Snapshot()
			all := rt.Obs.Histogram(PauseHist).Snapshot()
			if mv.Count != 1 || mv.Sum != bd.TotalCycles() || all.Count != 1 || all.Sum != mv.Sum {
				t.Errorf("move pauses = %d summing %d (all causes: %d summing %d), want one of %d whole-operation cycles",
					mv.Count, mv.Sum, all.Count, all.Sum, bd.TotalCycles())
			}
		})
	}
}

// TestSwapIsOneStop: a swap-out and its swap-in each stop the world once and
// record one pause of the whole-operation formula SwapCycles counts: the
// barrier, one patch per pointer, and the copy.
func TestSwapIsOneStop(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.TrackAlloc(base, 2048); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		loc := base + 2048 + uint64(i)*8
		k.Mem.Store64(loc, base+uint64(i)*8)
		rt.TrackEscape(loc, base+uint64(i)*8)
	}
	rt.Flush()
	k.Mem.Store64(base, 0xBEEF)
	world := &fakeWorld{}
	rt.SetWorld(world)

	slot, err := rt.SwapOut(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SwapIn(slot, base); err != nil {
		t.Fatal(err)
	}
	if got := k.Mem.Load64(base); got != 0xBEEF {
		t.Errorf("data after swap round trip = %#x, want 0xBEEF", got)
	}
	if world.stops != 2 || world.resumes != 2 {
		t.Errorf("two swaps stopped the world %d times and resumed it %d times, want twice each", world.stops, world.resumes)
	}
	const perSwap = cycBarrier + 16*cycEscapePatch + 2048*cycPerByteMove
	if got := rt.Stats.SwapCycles.Get(); got != 2*perSwap {
		t.Errorf("swap cycles = %d, want 2 × %d", got, perSwap)
	}
	for _, cause := range []string{"swap_out", "swap_in"} {
		if h := rt.Obs.Histogram(PauseHist + "." + cause).Snapshot(); h.Count != 1 || h.Sum != perSwap {
			t.Errorf("%s pauses = %d summing %d, want one of %d", cause, h.Count, h.Sum, perSwap)
		}
	}
}
