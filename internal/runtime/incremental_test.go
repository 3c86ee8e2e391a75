package runtime

import (
	"reflect"
	"strings"
	"testing"

	"carat/internal/fault"
	"carat/internal/guard"
	"carat/internal/kernel"
)

// buildDenseMoveFixture is buildMoveFixture with enough in-range escapes
// that a bounded move crosses several window boundaries: one allocation
// on the to-be-moved page with escapeCount pointers to it parked on a later
// page, plus a pointer-bearing register file.
func buildDenseMoveFixture(t *testing.T, escapeCount int) (*kernel.Kernel, *kernel.Process, *Runtime, *fakeWorld, *fakeRegs, uint64) {
	t.Helper()
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	allocA := base + 64
	if err := rt.TrackAlloc(allocA, 1024); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < escapeCount; i++ {
		loc := base + 2*kernel.PageSize + uint64(i)*8
		val := allocA + uint64(i)*8
		k.Mem.Store64(loc, val)
		rt.TrackEscape(loc, val)
	}
	rt.Flush()
	regs := &fakeRegs{vals: []uint64{allocA + 96, 12345, allocA + 128}}
	world := &fakeWorld{regs: []*fakeRegs{regs}}
	rt.SetWorld(world)
	return k, p, rt, world, regs, base
}

// minBudget is the smallest effective pause budget: windows of MinMoveBatch
// escape patches, so a dense move crosses the most boundaries.
var minBudget = PauseBound(MinMoveBatch)

// TestBoundedMoveMatchesUnbounded runs the same move at pause budget 0 and
// at the minimum budget and requires the end states to be identical: memory
// image, regions, table, registers, free frames, the per-move breakdown,
// and the program-clock contribution. Only the pause attribution may differ
// — at budget 0 the one pause is the whole operation, and under a budget
// every recorded pause must respect the PauseBound guarantee.
func TestBoundedMoveMatchesUnbounded(t *testing.T) {
	const escapes = 24

	type result struct {
		snap machineSnap
		bd   MoveBreakdown
		mc   uint64
	}
	run := func(budget uint64) (result, *Runtime, *fakeWorld) {
		k, p, rt, world, regs, base := buildDenseMoveFixture(t, escapes)
		rt.SetPauseBudget(budget)
		if _, err := p.RequestMove(base, 1); err != nil {
			t.Fatalf("move (budget %d): %v", budget, err)
		}
		if len(rt.MoveStats) != 1 {
			t.Fatalf("move stats = %d entries", len(rt.MoveStats))
		}
		return result{
			snap: snapshot(k, p, rt, regs),
			bd:   rt.MoveStats[0],
			mc:   rt.Stats.MoveCycles.Get(),
		}, rt, world
	}

	unb, urt, uworld := run(0)
	bnd, brt, bworld := run(minBudget)

	if !reflect.DeepEqual(unb.snap, bnd.snap) {
		t.Errorf("end states differ:\n unbounded %+v\n bounded   %+v", unb.snap, bnd.snap)
	}
	if unb.bd != bnd.bd {
		t.Errorf("move breakdowns differ:\n unbounded %+v\n bounded   %+v", unb.bd, bnd.bd)
	}
	if unb.mc != bnd.mc {
		t.Errorf("program-clock move cycles differ: unbounded %d, bounded %d", unb.mc, bnd.mc)
	}

	// Pause structure: budget 0 is one whole-operation stop; a budget is
	// several bounded windows, none exceeding the bound.
	if uworld.stops != 1 || urt.Stats.BatchPauses.Get() != 0 {
		t.Errorf("unbounded move crossed window boundaries: stops %d, batch pauses %d",
			uworld.stops, urt.Stats.BatchPauses.Get())
	}
	boundaries := uint64(bworld.stops - 1)
	if boundaries == 0 {
		t.Error("bounded move crossed no window boundary despite dense escapes")
	}
	if bworld.stops != bworld.resumes {
		t.Errorf("stops/resumes unpaired: %d/%d", bworld.stops, bworld.resumes)
	}
	if got := brt.Stats.BatchPauses.Get(); got != boundaries {
		t.Errorf("batch pauses = %d, want one per boundary = %d", got, boundaries)
	}
	uh := urt.Obs.Histogram(PauseHist).Snapshot()
	bh := brt.Obs.Histogram(PauseHist).Snapshot()
	bound := PauseBound(MinMoveBatch)
	if bh.Max > bound {
		t.Errorf("bounded pause max %d exceeds PauseBound(%d) = %d", bh.Max, MinMoveBatch, bound)
	}
	if uh.Max <= bound {
		t.Errorf("unbounded pause max %d unexpectedly within the bound %d — fixture too small", uh.Max, bound)
	}
	// Budget 0 attributes the whole operation (including page allocation
	// and the data copy) to one "move" pause; a budget attributes only the
	// metered stop-window work — the prototype cost minus the opening
	// barrier — plus one barrier per window. The difference is exactly the
	// off-pause movement cost and the extra barrier round trips.
	um := urt.Obs.Histogram(PauseHist + ".move").Snapshot()
	if um.Count != 1 || um.Sum != unb.bd.TotalCycles() || uh.Sum != um.Sum {
		t.Errorf("unbounded move pause = %d windows summing %d (all causes %d), want one of %d whole-operation cycles",
			um.Count, um.Sum, uh.Sum, unb.bd.TotalCycles())
	}
	windows := boundaries + 1
	wantSum := bnd.bd.PrototypeCycles() - cycBarrier + windows*cycBarrier
	if bh.Count != windows || bh.Sum != wantSum {
		t.Errorf("bounded pauses = %d windows summing %d, want %d windows of metered work + barriers = %d",
			bh.Count, bh.Sum, windows, wantSum)
	}
}

// TestIncrementalAbortAtEveryBatchBoundary arms fault.MoveBatch at each
// window boundary a bounded move crosses, in turn, and requires the PR-5 undo
// log to restore the machine bit-identically — then the same move must
// succeed once the fault is exhausted. This is the per-batch extension of
// TestAbortAtEveryStepBoundaryRollsBack.
func TestIncrementalAbortAtEveryBatchBoundary(t *testing.T) {
	const escapes = 24

	// Discover how many boundaries a clean run crosses.
	_, p0, rt0, world0, _, base0 := buildDenseMoveFixture(t, escapes)
	rt0.SetPauseBudget(minBudget)
	if _, err := p0.RequestMove(base0, 1); err != nil {
		t.Fatalf("clean bounded move: %v", err)
	}
	boundaries := world0.stops - 1
	if boundaries < 2 {
		t.Fatalf("fixture crosses only %d boundaries; need >= 2 for a meaningful sweep", boundaries)
	}

	for nth := 1; nth <= boundaries; nth++ {
		k, p, rt, _, regs, base := buildDenseMoveFixture(t, escapes)
		rt.SetPauseBudget(minBudget)
		inj := fault.New(1, nil)
		rt.SetInjector(inj)

		before := snapshot(k, p, rt, regs)
		vetoesBefore := k.Stats.MoveVetoes.Get()

		inj.Arm(fault.MoveBatch, nth)
		_, err := p.RequestMove(base, 1)
		if err == nil {
			t.Fatalf("boundary %d: armed batch abort did not fail the move", nth)
		}
		if !fault.Injected(err) {
			t.Fatalf("boundary %d: move error lost the injected fault: %v", nth, err)
		}
		if !strings.Contains(err.Error(), "aborted at batch boundary") {
			t.Errorf("boundary %d: unexpected abort error: %v", nth, err)
		}

		after := snapshot(k, p, rt, regs)
		if !reflect.DeepEqual(before, after) {
			t.Errorf("boundary %d: state differs after rollback:\n before %+v\n after  %+v", nth, before, after)
		}
		if err := rt.Table.CheckInvariants(); err != nil {
			t.Errorf("boundary %d: %v", nth, err)
		}
		if got := k.Stats.MoveVetoes.Get(); got != vetoesBefore+1 {
			t.Errorf("boundary %d: move vetoes = %d, want %d", nth, got, vetoesBefore+1)
		}
		if got := rt.Stats.MoveRollbacks.Get(); got != 1 {
			t.Errorf("boundary %d: rollbacks = %d, want 1", nth, got)
		}

		// Fault exhausted: the identical request must now succeed.
		res, err := p.RequestMove(base, 1)
		if err != nil {
			t.Fatalf("boundary %d: move after batch abort: %v", nth, err)
		}
		if res.Dst == res.Src {
			t.Errorf("boundary %d: successful move did not relocate the page", nth)
		}
	}
}

// TestSingleWindowMoveMakesNoBatchFaultDraw: the MoveBatch point is only
// consulted when a window closes, so a move that fits one window — budget
// 0, or a budget its work never fills — must sail past an armed batch fault
// and consume nothing from it.
func TestSingleWindowMoveMakesNoBatchFaultDraw(t *testing.T) {
	for _, budget := range []uint64{0, 1 << 40} {
		_, p, rt, world, _, base := buildDenseMoveFixture(t, 24)
		rt.SetPauseBudget(budget)
		inj := fault.New(1, nil)
		rt.SetInjector(inj)
		inj.Arm(fault.MoveBatch, 1)
		res, err := p.RequestMove(base, 1)
		if err != nil {
			t.Fatalf("budget %d: single-window move tripped over an armed batch fault: %v", budget, err)
		}
		if world.stops != 1 {
			t.Fatalf("budget %d: move crossed %d window boundaries, want none", budget, world.stops-1)
		}
		if got := inj.InjectedCount(); got != 0 {
			t.Errorf("budget %d: %d faults fired without a boundary", budget, got)
		}
		// Still armed: the first boundary of a dense bounded move trips it.
		rt.SetPauseBudget(minBudget)
		if _, err := p.RequestMove(res.Dst, 1); err == nil || !fault.Injected(err) {
			t.Errorf("budget %d: armed batch fault was consumed by the single-window move (err %v)", budget, err)
		}
	}
}

// TestBoundedMoveFailsWithoutForwardingWindow: a bounded move resumes the
// mutators between windows with pointers already naming a destination that
// holds no data yet; the forwarding window is the read barrier that makes
// that safe. If it cannot open — one is already open on the region set —
// the move must fail and roll back instead of running unprotected.
func TestBoundedMoveFailsWithoutForwardingWindow(t *testing.T) {
	k, p, rt, _, regs, base := buildDenseMoveFixture(t, 24)
	rt.SetPauseBudget(minBudget)
	other := base + 3*kernel.PageSize
	if err := p.Regions.OpenForward(other, other+kernel.PageSize, kernel.PageSize); err != nil {
		t.Fatal(err)
	}
	before := snapshot(k, p, rt, regs)

	_, err := p.RequestMove(base, 1)
	if err == nil || !strings.Contains(err.Error(), "forwarding window") {
		t.Fatalf("bounded move with a foreign window open: err = %v, want forwarding-window failure", err)
	}
	if got := rt.Stats.MoveRollbacks.Get(); got != 1 {
		t.Errorf("move rollbacks = %d, want 1", got)
	}
	if after := snapshot(k, p, rt, regs); !reflect.DeepEqual(before, after) {
		t.Errorf("state differs after rollback:\n before %+v\n after  %+v", before, after)
	}
	if !p.Regions.ForwardActive() {
		t.Error("failed move closed a forwarding window it did not open")
	}

	// An unbounded move needs no read barrier and is unaffected; and once
	// the foreign window closes the bounded move goes through.
	p.Regions.CloseForward()
	if _, err := p.RequestMove(base, 1); err != nil {
		t.Fatalf("bounded move after the window closed: %v", err)
	}
}

// TestIncrementalSwapPauseBounded: swaps run their escape-poisoning under
// the same bounded windows (without boundary faults — they have no undo
// log and need none).
func TestIncrementalSwapPauseBounded(t *testing.T) {
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
	rt.SetWorld(&fakeWorld{})
	rt.SetPauseBudget(minBudget)

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
	if rt.Stats.BatchPauses.Get() == 0 {
		t.Error("bounded swaps crossed no window boundary")
	}
	// Escapes outside the allocation don't get poisoned... only pointers
	// into [base, base+2048) count, which all 16 are.
	hist := rt.Obs.Histogram(PauseHist).Snapshot()
	if hist.Max > minBudget {
		t.Errorf("bounded swap pause max %d exceeds the budget %d", hist.Max, minBudget)
	}
	// SwapCycles keeps the whole-operation formula at every budget.
	wantSwap := 2 * (uint64(cycBarrier) + 16*cycEscapePatch + 2048*cycPerByteMove)
	if got := rt.Stats.SwapCycles.Get(); got != wantSwap {
		t.Errorf("swap cycles = %d, want whole-operation formula %d", got, wantSwap)
	}
}
