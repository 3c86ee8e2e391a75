package kernel

import (
	"testing"
	"testing/quick"

	"carat/internal/guard"
)

func TestPhysMemBounds(t *testing.T) {
	m := NewPhysMem(2 * PageSize)
	if m.Size() != 2*PageSize {
		t.Fatalf("size = %d", m.Size())
	}
	if m.InBounds(0, 8) {
		t.Error("address 0 must be unmapped")
	}
	if !m.InBounds(8, 8) {
		t.Error("low address should be in bounds")
	}
	if m.InBounds(2*PageSize-4, 8) {
		t.Error("straddling end should be out of bounds")
	}
	if m.InBounds(^uint64(0)-4, 8) {
		t.Error("wraparound not caught")
	}
}

func TestPhysMemRoundTrip(t *testing.T) {
	m := NewPhysMem(PageSize)
	m.Store64(64, 0xdeadbeefcafef00d)
	if got := m.Load64(64); got != 0xdeadbeefcafef00d {
		t.Errorf("Load64 = %#x", got)
	}
	for _, n := range []int{1, 2, 4, 8} {
		m.StoreN(128, 0xA5A5A5A5A5A5A5A5, n)
		want := uint64(0xA5A5A5A5A5A5A5A5)
		if n < 8 {
			want &= 1<<(8*uint(n)) - 1
		}
		if got := m.LoadN(128, n); got != want {
			t.Errorf("LoadN(%d) = %#x, want %#x", n, got, want)
		}
	}
}

func TestPhysMemMove(t *testing.T) {
	m := NewPhysMem(4 * PageSize)
	if err := m.WriteAt(PageSize, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Move(3*PageSize, PageSize, PageSize); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 4)
	_ = m.ReadAt(3*PageSize, b)
	if b[0] != 1 || b[3] != 4 {
		t.Error("moved data wrong")
	}
	_ = m.ReadAt(PageSize, b)
	if b[0] != 0 {
		t.Error("source not zeroed")
	}
	if err := m.Move(PageSize+8, PageSize, 64); err == nil {
		t.Error("overlapping move accepted")
	}
}

func TestPageAllocatorBasic(t *testing.T) {
	a := NewPageAllocator(64)
	if a.FreePages() != 63 { // page 0 reserved
		t.Fatalf("free = %d, want 63", a.FreePages())
	}
	addr, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if addr == 0 || addr%PageSize != 0 {
		t.Fatalf("bad allocation address %#x", addr)
	}
	if a.FreePages() != 59 {
		t.Errorf("free after alloc = %d", a.FreePages())
	}
	if !a.Reserved(addr) || !a.Reserved(addr+3*PageSize) {
		t.Error("allocated pages not marked reserved")
	}
	if err := a.Free(addr, 4); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 63 {
		t.Errorf("free after free = %d", a.FreePages())
	}
	if err := a.Free(addr, 4); err == nil {
		t.Error("double free accepted")
	}
}

func TestPageAllocatorContiguity(t *testing.T) {
	a := NewPageAllocator(16)
	// Fragment: allocate all, free alternating single pages.
	var addrs []uint64
	for {
		addr, err := a.Alloc(1)
		if err != nil {
			break
		}
		addrs = append(addrs, addr)
	}
	for i := 0; i < len(addrs); i += 2 {
		if err := a.Free(addrs[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Alloc(2); err == nil {
		t.Error("contiguous alloc from fragmented memory should fail")
	}
	if _, err := a.Alloc(1); err != nil {
		t.Error("single page should still be available")
	}
}

func TestFragStatsOnFragmentedArena(t *testing.T) {
	a := NewPageAllocator(16)
	// Same fragmentation as TestPageAllocatorContiguity: all 15 usable
	// pages allocated singly, then every other one freed — pages 1, 3,
	// ..., 15 become eight isolated free pages.
	var addrs []uint64
	for {
		addr, err := a.Alloc(1)
		if err != nil {
			break
		}
		addrs = append(addrs, addr)
	}
	for i := 0; i < len(addrs); i += 2 {
		if err := a.Free(addrs[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	fs := a.FragStats()
	if fs.TotalPages != 16 || fs.FreePages != 8 {
		t.Fatalf("stats = %+v, want 16 total / 8 free", fs)
	}
	if fs.FreeRuns != 8 || fs.LargestRun != 1 {
		t.Errorf("runs = %d largest = %d, want 8 single-page runs", fs.FreeRuns, fs.LargestRun)
	}
	if len(fs.RunHist) != 1 || fs.RunHist[0] != 8 {
		t.Errorf("run histogram = %v, want [8]", fs.RunHist)
	}
	if fs.Score != 1-1.0/8 {
		t.Errorf("score = %v, want %v", fs.Score, 1-1.0/8)
	}

	// Compacting by hand (free everything) collapses to one run.
	for i := 1; i < len(addrs); i += 2 {
		if err := a.Free(addrs[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	fs = a.FragStats()
	if fs.FreeRuns != 1 || fs.LargestRun != 15 || fs.Score != 0 {
		t.Errorf("after compaction: %+v, want one 15-page run, score 0", fs)
	}
	if len(fs.RunHist) != 4 || fs.RunHist[3] != 1 {
		t.Errorf("run histogram = %v, want one run in the [8,16) bucket", fs.RunHist)
	}
}

func TestFreeErrorPaths(t *testing.T) {
	a := NewPageAllocator(16)
	addr, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr+8, 1); err == nil {
		t.Error("unaligned free accepted")
	}
	if err := a.Free(addr, 20); err == nil {
		t.Error("out-of-range free accepted")
	}
	if err := a.Free(15*PageSize, 2); err == nil {
		t.Error("free straddling memory end accepted")
	}
	if err := a.Free(addr, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(addr, 2); err == nil {
		t.Error("double free accepted")
	}
	// A failed free must not corrupt the free count.
	if a.FreePages() != 15 {
		t.Errorf("free pages = %d, want 15", a.FreePages())
	}
}

func TestIsolationExcludesWindowFromAllocation(t *testing.T) {
	a := NewPageAllocator(64)
	a.Isolate(1, 32) // pages [1,33) off limits
	for i := 0; i < 4; i++ {
		addr, err := a.Alloc(4)
		if err != nil {
			t.Fatal(err)
		}
		if p := addr / PageSize; p < 33 {
			t.Errorf("allocation %d landed on isolated page %d", i, p)
		}
	}
	// The isolated window still counts as free, so a too-large request
	// fails on contiguity, not accounting.
	if _, err := a.Alloc(32); err == nil {
		t.Error("allocation inside isolated window succeeded")
	}
	a.ClearIsolation()
	if _, err := a.Alloc(32); err != nil {
		t.Errorf("allocation after ClearIsolation failed: %v", err)
	}
}

func TestPreferenceSteersAllocation(t *testing.T) {
	a := NewPageAllocator(64)
	a.Prefer(40, 24) // prefer the upper third
	addr, err := a.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if p := addr / PageSize; p < 40 {
		t.Errorf("preferred allocation landed at page %d, want >= 40", p)
	}
	// A request larger than the preferred window falls back to the rest.
	big, err := a.Alloc(30)
	if err != nil {
		t.Fatal(err)
	}
	if p := big / PageSize; p >= 40 {
		t.Errorf("oversized allocation landed at page %d inside the window", p)
	}
	a.ClearPreference()
	if _, err := a.Alloc(1); err != nil {
		t.Fatal(err)
	}
}

func TestPageAllocatorExhaustion(t *testing.T) {
	a := NewPageAllocator(8)
	if _, err := a.Alloc(8); err == nil { // only 7 available
		t.Error("overcommit accepted")
	}
	if _, err := a.Alloc(7); err != nil {
		t.Errorf("full allocation failed: %v", err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Error("allocation from empty allocator succeeded")
	}
}

func TestQuickAllocatorNeverHandsOutPageZeroOrOverlap(t *testing.T) {
	f := func(sizes []uint8) bool {
		a := NewPageAllocator(256)
		owned := map[uint64]bool{}
		for _, s := range sizes {
			n := uint64(s%7) + 1
			addr, err := a.Alloc(n)
			if err != nil {
				continue
			}
			if addr == 0 {
				return false
			}
			for p := addr / PageSize; p < addr/PageSize+n; p++ {
				if owned[p] {
					return false // overlap!
				}
				owned[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGrantAndReleaseRegion(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	base, err := p.GrantRegion(10000, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Regions.Check(base, 10000, guard.PermRead) {
		t.Error("granted region not readable")
	}
	if !p.Regions.Check(base+PageSize*2, 8, guard.PermWrite) {
		t.Error("granted region not writable")
	}
	// 10000 bytes → 3 pages.
	if k.Stats.PageAllocs.Get() != 3 {
		t.Errorf("PageAllocs = %d, want 3", k.Stats.PageAllocs.Get())
	}
	if err := p.ReleaseRegion(base, 3*PageSize); err != nil {
		t.Fatal(err)
	}
	if p.Regions.Check(base, 8, guard.PermRead) {
		t.Error("released region still accessible")
	}
}

func TestRequestProtectWithoutHandler(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	base, err := p.GrantRegion(2*PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.RequestProtect(base, PageSize, guard.PermRead); err != nil {
		t.Fatal(err)
	}
	if p.Regions.Check(base, 8, guard.PermWrite) {
		t.Error("write still allowed after protect")
	}
	if !p.Regions.Check(base+PageSize, 8, guard.PermWrite) {
		t.Error("unprotected half lost write permission")
	}
	if k.Stats.ProtChanges.Get() != 1 {
		t.Errorf("ProtChanges = %d", k.Stats.ProtChanges.Get())
	}
}

// fakeHandler approves every move by copying pages verbatim.
type fakeHandler struct {
	k *Kernel
	p *Process
}

func (h *fakeHandler) HandleMove(req MoveRequest) (MoveResult, error) {
	dst, err := req.NegotiateDst(req.Src, req.Pages)
	if err != nil {
		return MoveResult{}, err
	}
	if err := h.k.Mem.Move(dst, req.Src, req.Pages*PageSize); err != nil {
		return MoveResult{}, err
	}
	if err := req.RetireSrc(req.Src, req.Pages); err != nil {
		return MoveResult{}, err
	}
	return MoveResult{Src: req.Src, Dst: dst, Pages: req.Pages}, nil
}

func (h *fakeHandler) HandleProtect(apply func() error) error { return apply() }

func TestRequestMoveProtocol(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	p.Handler = &fakeHandler{k: k, p: p}
	base, err := p.GrantRegion(4*PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	k.Mem.Store64(base+16, 0x1234)

	res, err := p.RequestMove(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dst == base {
		t.Error("move did not relocate")
	}
	if got := k.Mem.Load64(res.Dst + 16); got != 0x1234 {
		t.Errorf("data not moved: %#x", got)
	}
	// Old first page removed from regions; rest still there.
	if p.Regions.Check(base, 8, guard.PermRead) {
		t.Error("vacated page still permitted")
	}
	if !p.Regions.Check(base+PageSize, 8, guard.PermRead) {
		t.Error("unmoved pages lost permission")
	}
	if !p.Regions.Check(res.Dst, 8, guard.PermRead) {
		t.Error("destination pages not permitted")
	}
	if k.Stats.PageMoves.Get() != 1 {
		t.Errorf("PageMoves = %d", k.Stats.PageMoves.Get())
	}
}

func TestPoisonEncoding(t *testing.T) {
	for _, kind := range []PoisonKind{PoisonSwapped, PoisonDemand, PoisonNull} {
		a := Poison(kind)
		if !IsPoison(a) {
			t.Errorf("Poison(%d) not detected as poison", kind)
		}
	}
	if IsPoison(0x7fff_ffff_ffff) {
		t.Error("ordinary address flagged as poison")
	}
}

func TestPagingModelDemandPaging(t *testing.T) {
	m := NewPagingModel(100, 10)
	if m.PageAllocs != 10 {
		t.Fatalf("initial allocs = %d", m.PageAllocs)
	}
	// Touch the already-resident pages: no new allocations.
	for p := uint64(0); p < 10; p++ {
		m.Touch(p * PageSize)
	}
	if m.PageAllocs != 10 {
		t.Errorf("resident touches allocated: %d", m.PageAllocs)
	}
	// Touch 50 new pages.
	for p := uint64(100); p < 150; p++ {
		m.Touch(p*PageSize + 123)
	}
	if m.PageAllocs != 60 {
		t.Errorf("allocs = %d, want 60", m.PageAllocs)
	}
	if uint64(len(m.resident)) != 60 {
		t.Errorf("resident = %d, want 60", uint64(len(m.resident)))
	}
	if m.PageMoves != 0 {
		t.Errorf("moves = %d, want 0 with no migration policy", m.PageMoves)
	}
}

func TestPagingModelMigrations(t *testing.T) {
	m := NewPagingModel(100, 0)
	// Period-25 migrator through the policy interface (mmpolicy's
	// RareMigration has the same firing pattern for unit increments).
	m.Migrator = MigratorFunc(func(allocs uint64) bool { return allocs%25 == 0 })
	for p := uint64(0); p < 100; p++ {
		m.Touch(p * PageSize)
	}
	if m.PageMoves != 4 {
		t.Errorf("moves = %d, want 4 (100 allocs / period 25)", m.PageMoves)
	}
}

func TestMMUNotifierStream(t *testing.T) {
	k := New(1 << 20)
	p := k.NewProcess()
	p.Handler = &fakeHandler{k: k, p: p}
	log := &EventLog{}
	p.RegisterNotifier(log)

	base, err := p.GrantRegion(4*PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	if log.Count(EventAllocate) != 1 {
		t.Errorf("allocate events = %d, want 1", log.Count(EventAllocate))
	}
	if err := p.RequestProtect(base, PageSize, guard.PermRead); err != nil {
		t.Fatal(err)
	}
	if log.Count(EventInvalidateRange) != 1 {
		t.Errorf("invalidate events = %d, want 1", log.Count(EventInvalidateRange))
	}
	res, err := p.RequestMove(base+PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A move produces a PTE-change event plus the source retirement's
	// invalidation (the two notification kinds the paper's methodology
	// distinguishes, §3).
	if log.Count(EventPTEChange) != 1 {
		t.Errorf("pte-change events = %d, want 1", log.Count(EventPTEChange))
	}
	var ptev MMUEvent
	for _, ev := range log.Events {
		if ev.Kind == EventPTEChange {
			ptev = ev
		}
	}
	if ptev.Base != res.Src || ptev.NewPA != res.Dst {
		t.Errorf("pte-change event = %+v, want src %#x dst %#x", ptev, res.Src, res.Dst)
	}
	// Functional notifier adapter works too.
	calls := 0
	p.RegisterNotifier(NotifierFunc(func(MMUEvent) { calls++ }))
	if _, err := p.GrantRegion(PageSize, guard.PermRead); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("func notifier calls = %d, want 1", calls)
	}
}
