package runtime

import (
	"sync"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
)

// The tracking callbacks must be callable from inside a move/invalidation
// listener: listeners run with the world stopped but outside every runtime
// lock, so re-entry into TrackAlloc/TrackFree/TrackEscape (e.g. a profiler
// reacting to a move) must not deadlock.
func TestMoveListenerMayReenterRuntime(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	allocA := base + 64
	if err := rt.TrackAlloc(allocA, 256); err != nil {
		t.Fatal(err)
	}

	scratch := base + 3*kernel.PageSize
	var calls int
	rt.AddMoveListener(func(src, dst, length uint64) {
		calls++
		// Re-enter the tracking API from inside the listener. Any of these
		// deadlocks if the runtime still holds a lock while notifying.
		if err := rt.TrackAlloc(scratch, 64); err != nil {
			t.Errorf("re-entrant TrackAlloc: %v", err)
		}
		rt.TrackEscape(scratch+8, scratch)
		rt.Flush()
		if err := rt.TrackFree(scratch); err != nil {
			t.Errorf("re-entrant TrackFree: %v", err)
		}
		if rt.Table.Covering(allocA-src+dst) == nil {
			t.Error("listener sees pre-move table state")
		}
	})

	if _, err := p.RequestMove(base, 1); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("move listener ran %d times, want 1", calls)
	}
	_ = k
}

// Same contract for the invalidation listeners fired by swap-out/swap-in.
func TestInvalidationListenerMayReenterRuntime(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(4*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	alloc := base + 128
	if err := rt.TrackAlloc(alloc, 256); err != nil {
		t.Fatal(err)
	}
	k.Mem.Store64(base+kernel.PageSize, alloc)
	rt.TrackEscape(base+kernel.PageSize, alloc)
	rt.Flush()

	var ranges [][2]uint64
	rt.AddInvalidationListener(func(b, l uint64) {
		ranges = append(ranges, [2]uint64{b, l})
		// Re-enter: a listener may consult or mutate tracking state.
		rt.TrackEscape(base+kernel.PageSize+8, 0)
		rt.Flush()
	})

	slot, err := rt.SwapOut(alloc)
	if err != nil {
		t.Fatal(err)
	}
	newBase := base + 2*kernel.PageSize
	if err := rt.SwapIn(slot, newBase); err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 {
		t.Fatalf("invalidation listener ran %d times, want 2", len(ranges))
	}
	if ranges[0] != [2]uint64{alloc, 256} {
		t.Errorf("swap-out invalidated %#x+%d, want %#x+256", ranges[0][0], ranges[0][1], alloc)
	}
	if ranges[1] != [2]uint64{newBase, 256} {
		t.Errorf("swap-in invalidated %#x+%d, want %#x+256", ranges[1][0], ranges[1][1], newBase)
	}
}

// Concurrent escape tracking through per-thread buffers against the
// table: run with -race. Writers hammer disjoint escape locations
// targeting shared allocations while readers walk the table and pick.
func TestConcurrentEscapeTracking(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	const nAllocs = 32
	for i := uint64(0); i < nAllocs; i++ {
		if err := rt.TrackAlloc(0x100000+i*0x1000, 0x800); err != nil {
			t.Fatal(err)
		}
	}

	const nWriters = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := rt.NewEscapeBuffer()
			for i := 0; i < perWriter; i++ {
				loc := 0x400000 + uint64(w)*perWriter*8 + uint64(i)*8
				target := 0x100000 + uint64((w*perWriter+i)%nAllocs)*0x1000
				buf.Track(loc, target+uint64(i%0x800))
				if i%257 == 0 {
					buf.Flush()
				}
			}
			buf.Flush()
		}(w)
	}
	// Readers exercise lookup paths concurrently with the flushes, and a
	// mover shuttles a page's worth of escapes between two pages nobody
	// else writes.
	const shuttled = 64
	for i := uint64(0); i < shuttled; i++ {
		rt.Table.AddEscape(0x500000+i*8, 0x100000)
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		from, to := uint64(0x500000), uint64(0x520000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if moved, _ := rt.Table.RebaseEscapeLocs(from, from+kernel.PageSize, to); moved != shuttled {
				t.Errorf("shuttle moved %d escapes, want %d", moved, shuttled)
				return
			}
			from, to = to, from
		}
	}()
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rt.Table.EscapeCount()
				rt.Table.Covering(0x100000 + 0x400)
				rt.Table.EscapeTarget(0x400000)
				rt.Table.mostEscaped()
				rt.Table.ForEach(func(a *Allocation) bool {
					rt.Table.escapeLocs(a)
					a.EscapeCount()
					return true
				})
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	rt.Flush()

	if got, want := rt.Table.EscapeCount(), nWriters*perWriter+shuttled; got != want {
		t.Errorf("escape count = %d, want %d", got, want)
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Concurrent frees racing escape flushes must leave a consistent table:
// every surviving escape location maps to a live allocation.
func TestConcurrentFreeVsEscapeFlush(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	const n = 64
	for i := uint64(0); i < n; i++ {
		if err := rt.TrackAlloc(0x200000+i*0x1000, 0x100); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		buf := rt.NewEscapeBuffer()
		for i := 0; i < 4000; i++ {
			buf.Track(0x600000+uint64(i)*8, 0x200000+uint64(i%n)*0x1000)
			if i%101 == 0 {
				buf.Flush()
			}
		}
		buf.Flush()
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i += 2 {
			_ = rt.TrackFree(0x200000 + i*0x1000)
		}
	}()
	wg.Wait()
	rt.Flush()
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentEscapesAgainstTreeEdits: escape adds, removes and
// location rebases race allocations being inserted and removed and the
// Figure 9 pick, under -race. A count change rewrites subtree maxima on tree
// nodes, which Insert and Remove rotate: every path that edits the escape
// map must hold treeMu for reading.
func TestConcurrentEscapesAgainstTreeEdits(t *testing.T) {
	_, _, rt := newTestRuntime(t)
	const nAllocs = 64
	slot := func(i int) uint64 { return 0x100000 + uint64(i)*0x1000 }
	for i := 0; i < nAllocs; i += 2 { // the odd slots churn
		if err := rt.TrackAlloc(slot(i), 0x800); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo := 0x800000 + uint64(w)*0x10000 // the writer's two pages
			for i := 0; i < 6000; i++ {
				loc := lo + uint64(i%1024)*8
				rt.Table.AddEscape(loc, slot(i%nAllocs)+uint64(i%0x800))
				if i%3 == 2 {
					rt.Table.RemoveEscape(loc)
				}
				if i%100 == 99 { // onto the second page, dropping what it held, and back
					rt.Table.RebaseEscapeLocs(lo, lo+kernel.PageSize, lo+kernel.PageSize)
					rt.Table.RebaseEscapeLocs(lo+kernel.PageSize, lo+2*kernel.PageSize, lo)
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < 200; r++ {
			for i := 1; i < nAllocs; i += 2 {
				if r%2 == 0 {
					_, _ = rt.Table.Insert(slot(i), 0x800, false) // present or not: either is fine
				} else {
					rt.Table.Remove(slot(i))
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			rt.Table.mostEscaped() // WorstCasePage's read; its caratdebug walk would see edits land between the two
		}
	}()
	wg.Wait()
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, want := rt.Table.mostEscaped(), rt.mostEscapedWhere(func(*Allocation) bool { return true }); got != want {
		t.Errorf("the pick chose %v, the walk %v", got, want)
	}
}

// TestConcurrentTablesShareStocks: tables on several goroutines fill,
// release and take the process's stocks, slab and buckets, at once, under
// -race: a table's writes to a stock happen before the next table's, and
// the pool keeps no more stocks than there were tables at once.
func TestConcurrentTablesShareStocks(t *testing.T) {
	const workers = 4
	for stocks.Get() != nil { // what earlier tests released
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				tb := NewAllocationTable()
				for i := uint64(0); i < 300; i++ { // past one chunk
					base := 0x100000 + i*0x100
					if _, err := tb.Insert(base, 0x80, false); err != nil {
						t.Error(err)
						return
					}
					tb.AddEscape(0x800000+i*8, base)
					if i%2 == 1 {
						tb.Remove(base - 0x100)
					}
				}
				if err := tb.CheckInvariants(); err != nil {
					t.Error(err)
					return
				}
				tb.Release()
			}
		}()
	}
	wg.Wait()
	stocks.mu.Lock()
	defer stocks.mu.Unlock()
	if n := len(stocks.cur) + len(stocks.old); n > workers {
		t.Errorf("%d stocks kept, at most one per table at once = %d", n, workers)
	}
}
