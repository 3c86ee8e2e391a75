package runtime

import (
	"math/rand"
	"testing"
	"testing/quick"

	"carat/internal/guard"
	"carat/internal/kernel"
	"carat/internal/obs"
)

// Delete unlinks the allocation based at key and returns it, nil if key is
// absent: the tests' way to drop a key.
func (t *rbTree) Delete(key uint64) *Allocation {
	z := t.Get(key)
	if z != nil {
		t.deleteNode(z)
	}
	return z
}

func TestRBTreeBasic(t *testing.T) {
	var tr rbTree
	a := &Allocation{Base: 10, Len: 5}
	b := &Allocation{Base: 20, Len: 5}
	tr.Insert(a)
	tr.Insert(b)
	if tr.Insert(&Allocation{Base: 10}) {
		t.Error("a second allocation based at 10 was linked")
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Get(10) != a || tr.Get(20) != b || tr.Get(15) != nil {
		t.Error("Get wrong")
	}
	if tr.Floor(15) != a || tr.Floor(9) != nil {
		t.Error("Floor wrong")
	}
	if tr.Ceiling(15) != b || tr.Ceiling(21) != nil {
		t.Error("Ceiling wrong")
	}
	if tr.Delete(10) == nil || tr.Delete(10) != nil {
		t.Error("Delete wrong")
	}
	if tr.Len() != 1 {
		t.Errorf("len after delete = %d", tr.Len())
	}
}

func TestRBTreeInvariantsUnderChurn(t *testing.T) {
	var tr rbTree
	rng := rand.New(rand.NewSource(42))
	live := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := uint64(rng.Intn(5000))
		if rng.Intn(3) == 0 {
			tr.Delete(k)
			delete(live, k)
		} else {
			tr.Insert(&Allocation{Base: k, Len: 1})
			live[k] = true
		}
		if i%500 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			if tr.Len() != len(live) {
				t.Fatalf("iteration %d: size %d != %d", i, tr.Len(), len(live))
			}
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// In-order walk must be sorted and complete.
	var prev uint64
	first := true
	count := 0
	tr.AscendAll(func(a *Allocation) bool {
		k := a.Base
		if !first && k <= prev {
			t.Fatalf("walk out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		count++
		return true
	})
	if count != len(live) {
		t.Fatalf("walk visited %d, want %d", count, len(live))
	}
}

func TestQuickRBTreeMatchesMap(t *testing.T) {
	f := func(ops []uint16) bool {
		var tr rbTree
		ref := map[uint64]*Allocation{}
		for _, op := range ops {
			k := uint64(op % 512)
			if op&0x8000 != 0 {
				tr.Delete(k)
				delete(ref, k)
			} else {
				if a := (&Allocation{Base: k}); tr.Insert(a) {
					ref[k] = a
				}
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			if tr.Get(k) != v {
				return false
			}
		}
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestAllocationTableCovering(t *testing.T) {
	tb := NewAllocationTable()
	if _, err := tb.Insert(0x1000, 0x100, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(0x2000, 0x200, false); err != nil {
		t.Fatal(err)
	}
	if a := tb.Covering(0x1080); a == nil || a.Base != 0x1000 {
		t.Error("Covering missed interior address")
	}
	if a := tb.Covering(0x10ff); a == nil {
		t.Error("Covering missed last byte")
	}
	if tb.Covering(0x1100) != nil {
		t.Error("Covering hit one-past-end")
	}
	if tb.Covering(0x500) != nil {
		t.Error("Covering hit before first")
	}
}

func TestAllocationTableOverlapRejected(t *testing.T) {
	tb := NewAllocationTable()
	if _, err := tb.Insert(0x1000, 0x100, false); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(0x1080, 0x100, false); err == nil {
		t.Error("overlap from below accepted")
	}
	if _, err := tb.Insert(0xF80, 0x100, false); err == nil {
		t.Error("overlap from above accepted")
	}
	if _, err := tb.Insert(0xF00, 0x2000, false); err == nil {
		t.Error("containing overlap accepted")
	}
}

func TestAllocationTableOverlappingQuery(t *testing.T) {
	tb := NewAllocationTable()
	for _, base := range []uint64{0x1000, 0x3000, 0x5000, 0x7000} {
		if _, err := tb.Insert(base, 0x1800, false); err != nil {
			t.Fatal(err)
		}
	}
	got := tb.Overlapping(0x3800, 0x5800, nil)
	if len(got) != 2 || got[0].Base != 0x3000 || got[1].Base != 0x5000 {
		t.Fatalf("Overlapping = %+v", got)
	}
	// Range starting inside the first allocation.
	got = tb.Overlapping(0x1400, 0x1500, nil)
	if len(got) != 1 || got[0].Base != 0x1000 {
		t.Fatalf("interior Overlapping = %+v", got)
	}
	if got := tb.Overlapping(0x2800, 0x2900, nil); len(got) != 0 {
		t.Fatalf("gap Overlapping = %+v", got)
	}
}

func TestEscapeRetargeting(t *testing.T) {
	tb := NewAllocationTable()
	a, _ := tb.Insert(0x1000, 0x100, false)
	b, _ := tb.Insert(0x2000, 0x100, false)
	if !tb.AddEscape(0x9000, 0x1010) {
		t.Fatal("escape to tracked allocation rejected")
	}
	if a.EscapeCount() != 1 {
		t.Fatal("escape not recorded")
	}
	// Overwrite the same location with a pointer to b.
	tb.AddEscape(0x9000, 0x2020)
	if a.EscapeCount() != 0 || b.EscapeCount() != 1 {
		t.Error("escape not retargeted")
	}
	if tb.EscapeCount() != 1 {
		t.Errorf("escape count = %d, want 1", tb.EscapeCount())
	}
	tb.RemoveEscape(0x9000)
	if tb.EscapeCount() != 0 || b.EscapeCount() != 0 {
		t.Error("RemoveEscape failed")
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoveDropsEscapes(t *testing.T) {
	tb := NewAllocationTable()
	tb.Insert(0x1000, 0x100, false)
	tb.AddEscape(0x9000, 0x1000)
	tb.AddEscape(0x9008, 0x1008)
	if tb.Remove(0x1000) == nil {
		t.Fatal("Remove failed")
	}
	if tb.EscapeCount() != 0 {
		t.Errorf("escapes survive removal: %d", tb.EscapeCount())
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func newTestRuntime(t testing.TB) (*kernel.Kernel, *kernel.Process, *Runtime) {
	k := kernel.New(1 << 22) // 4 MB
	p := k.NewProcess()
	rt := New(k.Mem, nil, nil)
	p.Handler = rt
	return k, p, rt
}

func TestTrackingCallbacks(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	if err := rt.TrackAlloc(0x10000, 256); err != nil {
		t.Fatal(err)
	}
	rt.TrackEscape(0x20000, 0x10040)
	rt.Flush()
	if rt.Stats.Allocs.Get() != 1 || rt.Stats.EscapeEvents.Get() != 1 {
		t.Errorf("allocs = %d, escape events = %d", rt.Stats.Allocs.Get(), rt.Stats.EscapeEvents.Get())
	}
	if rt.Table.EscapeCount() != 1 {
		t.Error("escape not in table after flush")
	}
	if err := rt.TrackFree(0x10000); err != nil {
		t.Fatal(err)
	}
	if rt.Table.Len() != 0 {
		t.Error("allocation survives free")
	}
	if err := rt.TrackFree(0x10000); err == nil {
		t.Error("double free not reported")
	}
}

func TestStaticAllocationsNotFreeable(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	if err := rt.TrackStatic(0x10000, 4096); err != nil {
		t.Fatal(err)
	}
	if err := rt.TrackFree(0x10000); err == nil {
		t.Error("freeing a static allocation must fail")
	}
	if rt.Table.Len() != 1 {
		t.Error("static allocation lost after bad free")
	}
}

func TestEscapeBatchDedup(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	rt.TrackAlloc(0x10000, 256)
	rt.TrackAlloc(0x20000, 256)
	// Same location written 100 times; only the last write counts.
	for i := 0; i < 99; i++ {
		rt.TrackEscape(0x30000, 0x10000)
	}
	rt.TrackEscape(0x30000, 0x20000)
	rt.Flush()
	hist := rt.EscapeHistogram()
	if len(hist) != 2 || hist[0] != 0 || hist[1] != 1 {
		t.Errorf("histogram = %v, want [0 1]", hist)
	}
}

func TestEscapeBatchAutoFlush(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	rt.TrackAlloc(0x10000, 8192)
	for i := 0; i < DefaultBatchSize; i++ {
		rt.TrackEscape(0x40000+uint64(i)*8, 0x10000+uint64(i))
	}
	if rt.Stats.BatchFlushes.Get() == 0 {
		t.Error("batch did not auto-flush at threshold")
	}
}

func TestEscapeToUntrackedTarget(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	rt.TrackEscape(0x30000, 0xDEAD0)
	rt.Flush()
	if rt.Stats.UntrackedEsc.Get() != 1 {
		t.Errorf("untracked escapes = %d", rt.Stats.UntrackedEsc.Get())
	}
}

// fakeRegs implements RegSet for move tests.
type fakeRegs struct{ vals []uint64 }

func (f *fakeRegs) Regs() []uint64         { return f.vals }
func (f *fakeRegs) SetReg(i int, v uint64) { f.vals[i] = v }

// fakeWorld hands back fixed register sets (mirroring the worldtest fake,
// which internal test files cannot import — worldtest imports runtime) and
// panics on nested stops, like the real VM world. It counts stops and
// resumes: every operation stops and resumes it once.
type fakeWorld struct {
	regs    []*fakeRegs
	stops   int
	resumes int
	stopped bool
}

func (w *fakeWorld) StopTheWorld() []RegSet {
	if w.stopped {
		panic("fakeWorld: nested world stop")
	}
	w.stopped = true
	w.stops++
	out := make([]RegSet, len(w.regs))
	for i, r := range w.regs {
		out[i] = r
	}
	return out
}
func (w *fakeWorld) ResumeTheWorld() { w.stopped = false; w.resumes++ }

func TestHandleMovePatchesEverything(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}

	// Allocation A on the first page, with escapes: one outside the moved
	// range, one inside it (self-referential), one in a register.
	allocA := base + 64
	if err := rt.TrackAlloc(allocA, 512); err != nil {
		t.Fatal(err)
	}
	// A second allocation on a later page that must not move.
	allocB := base + 3*kernel.PageSize
	if err := rt.TrackAlloc(allocB, 128); err != nil {
		t.Fatal(err)
	}

	outsideLoc := base + 2*kernel.PageSize // holds pointer to A
	insideLoc := allocA + 16               // inside A, holds pointer to A
	k.Mem.Store64(outsideLoc, allocA+100)
	k.Mem.Store64(insideLoc, allocA+200)
	rt.TrackEscape(outsideLoc, allocA+100)
	rt.TrackEscape(insideLoc, allocA+200)
	// And a location inside the moved range pointing to B (loc moves, B not).
	locToB := allocA + 32
	k.Mem.Store64(locToB, allocB+8)
	rt.TrackEscape(locToB, allocB+8)
	rt.Flush()

	world := &fakeWorld{regs: []*fakeRegs{{vals: []uint64{allocA + 300, 12345, allocB}}}}
	rt.SetWorld(world)

	owned := k.OwnedPageCount()
	res, err := p.RequestMove(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 1 {
		t.Fatalf("pages moved = %d, want 1", res.Pages)
	}
	// The destination is owned and the source retired: the count stands.
	if got := k.OwnedPageCount(); got != owned {
		t.Errorf("owned pages = %d after the move, want %d", got, owned)
	}
	dst := res.Dst
	delta := dst - res.Src

	// Outside escape patched to the new location.
	if got := k.Mem.Load64(outsideLoc); got != allocA+100+delta {
		t.Errorf("outside escape = %#x, want %#x", got, allocA+100+delta)
	}
	// Inside escape moved with the page and patched.
	if got := k.Mem.Load64(insideLoc + delta); got != allocA+200+delta {
		t.Errorf("inside escape = %#x, want %#x", got, allocA+200+delta)
	}
	// Pointer to B moved with the page but its value must be unchanged.
	if got := k.Mem.Load64(locToB + delta); got != allocB+8 {
		t.Errorf("pointer to B = %#x, want unchanged %#x", got, allocB+8)
	}
	// Register patched; non-pointer register untouched; pointer to B kept.
	regs := world.regs[0].vals
	if regs[0] != allocA+300+delta {
		t.Errorf("register = %#x, want %#x", regs[0], allocA+300+delta)
	}
	if regs[1] != 12345 || regs[2] != allocB {
		t.Errorf("unrelated registers clobbered: %v", regs)
	}
	// Table updated.
	if a := rt.Table.Covering(allocA + delta); a == nil || a.Base != allocA+delta {
		t.Error("allocation not rebased in table")
	}
	if rt.Table.Covering(allocA) != nil {
		t.Error("stale allocation remains at old base")
	}
	// No escape may still point into the vacated range (DESIGN invariant).
	rt.Table.ForEach(func(a *Allocation) bool {
		for _, loc := range rt.Table.escapeLocs(a) {
			v := k.Mem.Load64(loc)
			if v >= res.Src && v < res.Src+res.Pages*kernel.PageSize {
				t.Errorf("escape at %#x still points into vacated range: %#x", loc, v)
			}
		}
		return true
	})
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if world.stops != 1 || world.resumes != 1 {
		t.Errorf("world stop/resume = %d/%d", world.stops, world.resumes)
	}
	// Breakdown recorded.
	if len(rt.MoveStats) != 1 {
		t.Fatalf("move stats = %d entries", len(rt.MoveStats))
	}
	bd := rt.MoveStats[0]
	if bd.EscapesPatched != 2 || bd.RegsPatched != 1 || bd.PagesMoved != 1 {
		t.Errorf("breakdown = %+v", bd)
	}
	if bd.TotalCycles() <= bd.PrototypeCycles() {
		t.Error("total cycles must include movement")
	}
}

func TestHandleMoveExpandsStraddlingAllocation(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(8*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	// Allocation straddles pages 1-2 (requested move: page 1 only).
	straddler := base + kernel.PageSize + kernel.PageSize/2
	if err := rt.TrackAlloc(straddler, kernel.PageSize); err != nil {
		t.Fatal(err)
	}
	k.Mem.Store64(straddler, 0xABCD)

	res, err := p.RequestMove(base+kernel.PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pages != 2 {
		t.Fatalf("expanded pages = %d, want 2", res.Pages)
	}
	// Data follows the allocation.
	newBase := straddler - res.Src + res.Dst
	if got := k.Mem.Load64(newBase); got != 0xABCD {
		t.Errorf("straddler data = %#x", got)
	}
	if a := rt.Table.Covering(newBase); a == nil {
		t.Error("straddler not rebased")
	}
}

func TestHandleProtectStopsWorld(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	world := &fakeWorld{}
	rt.SetWorld(world)
	base, err := p.GrantRegion(2*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RequestProtect(base, kernel.PageSize, guard.PermRead); err != nil {
		t.Fatal(err)
	}
	if world.stops != 1 || world.resumes != 1 {
		t.Error("protect did not stop/resume the world")
	}
	if p.Regions.Check(base, 8, guard.PermWrite) {
		t.Error("protection change not applied")
	}
	_ = k
}

func TestWorstCasePage(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	rt.TrackAlloc(0x10000, 256)
	rt.TrackAlloc(0x20000, 256)
	for i := 0; i < 5; i++ {
		rt.TrackEscape(0x5000+uint64(i)*8, 0x20000)
	}
	rt.TrackEscape(0x6000, 0x10000)
	page, ok := rt.WorstCasePage()
	if !ok || page != 0x20000 {
		t.Errorf("worst-case page = %#x, want 0x20000", page)
	}
}

func TestMemoryOverheadGrowsWithTracking(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	before := rt.MemoryOverheadBytes()
	for i := uint64(0); i < 100; i++ {
		rt.TrackAlloc(0x100000+i*0x1000, 64)
		rt.TrackEscape(0x80000+i*8, 0x100000+i*0x1000)
	}
	rt.Flush()
	after := rt.MemoryOverheadBytes()
	if after <= before {
		t.Error("tracking memory overhead did not grow")
	}
}

// Property: random alloc/free/escape storms keep the table invariants.
func TestQuickTableInvariantsUnderStorm(t *testing.T) {
	f := func(seed int64) bool {
		_, _, rt := newTestRuntime(t)
		rng := rand.New(rand.NewSource(seed))
		bases := []uint64{}
		for i := 0; i < 500; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				base := 0x10000 + uint64(rng.Intn(1000))*0x200
				if rt.TrackAlloc(base, uint64(rng.Intn(0x1ff)+1)) == nil {
					bases = append(bases, base)
				}
			case 2:
				if len(bases) > 0 {
					i := rng.Intn(len(bases))
					if rt.TrackFree(bases[i]) == nil {
						bases = append(bases[:i], bases[i+1:]...)
					}
				}
			case 3:
				if len(bases) > 0 {
					target := bases[rng.Intn(len(bases))] + uint64(rng.Intn(32))
					rt.TrackEscape(0x400000+uint64(rng.Intn(4096))*8, target)
				}
			}
		}
		rt.Flush()
		return rt.Table.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPublishAddsEachCountOnce: Publish lands what the runtime counted since
// the last publish — never a count twice — with load-time and run-time
// tracking cycles under one name, every series present from the first
// publish, and gauges only when asked for.
func TestPublishAddsEachCountOnce(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	if err := rt.TrackStatic(0x10000, 4096); err != nil {
		t.Fatal(err)
	}
	rt.TrackStaticEscape(0x10008, 0x10100)
	if err := rt.TrackAlloc(0x20000, 256); err != nil {
		t.Fatal(err)
	}
	rt.Flush()
	reg := obs.NewRegistry()
	reg.Publish(func(s obs.Sink) { rt.Publish(s, false) })
	reg.Publish(func(s obs.Sink) { rt.Publish(s, false) })
	snap := reg.Snapshot()
	if got, want := snap.Counters["carat.runtime.tracking_cycles"], rt.Stats.TrackingCycle.Get()+rt.Stats.LoadCycles.Get(); got != want || rt.Stats.LoadCycles.Get() == 0 {
		t.Errorf("tracking_cycles = %d, want %d (load-time %d included)", got, want, rt.Stats.LoadCycles.Get())
	}
	if got := snap.Counters["carat.runtime.allocs"]; got != 2 {
		t.Errorf("allocs = %d after two publishes of two allocations", got)
	}
	if _, ok := snap.Counters["carat.runtime.moves"]; !ok {
		t.Error("a counter that stayed zero has no series")
	}
	if _, ok := snap.Histograms[PauseHist]; !ok {
		t.Error("no pause histogram series before the first world stop")
	}
	if len(snap.Gauges) != 0 {
		t.Errorf("gauges published without being asked for: %v", snap.Gauges)
	}

	if err := rt.TrackFree(0x20000); err != nil {
		t.Fatal(err)
	}
	reg.Publish(func(s obs.Sink) { rt.Publish(s, true) })
	snap = reg.Snapshot()
	if snap.Counters["carat.runtime.frees"] != 1 || snap.Counters["carat.runtime.allocs"] != 2 {
		t.Errorf("after a free: %d frees, %d allocs published", snap.Counters["carat.runtime.frees"], snap.Counters["carat.runtime.allocs"])
	}
	if got, ok := snap.Gauges["carat.runtime.escapes_live"]; !ok || got != rt.Stats.EscapesLive.Get() {
		t.Errorf("escapes_live gauge = %d (present %v), want %d", got, ok, rt.Stats.EscapesLive.Get())
	}
}

// TestRebaseChecksItsRunInDebugBuilds: a caratdebug build refuses a Rebase
// whose allocations are not one contiguous run of the tree's keys, or
// whose destination already holds a key; the splice would reorder the
// tree silently.
func TestRebaseChecksItsRunInDebugBuilds(t *testing.T) {
	if !debugInvariants {
		t.Skip("only caratdebug builds check the run")
	}
	for _, c := range []struct {
		name     string
		src, dst uint64
		pick     []int
	}{{"scattered run", 0x1000, 0x9000, []int{0, 2}}, {"onto a tracked base", 0x1000, 0x1100, []int{0}}} {
		t.Run(c.name, func(t *testing.T) {
			tb := NewAllocationTable()
			var as []*Allocation
			for i := uint64(0); i < 3; i++ {
				a, err := tb.Insert(0x1000+i*0x100, 0x10, false)
				must(t, err)
				as = append(as, a)
			}
			var run []*Allocation
			for _, i := range c.pick {
				run = append(run, as[i])
			}
			defer func() {
				if recover() == nil {
					t.Fatal("Rebase accepted the run")
				}
			}()
			tb.Rebase(run, c.src, c.dst)
		})
	}
}
