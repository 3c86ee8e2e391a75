package guard

import (
	"reflect"
	"strconv"
	"testing"
	"unsafe"
)

// xcFill runs one successful cached check per page so the cache holds a
// known population.
func xcFill(t *testing.T, e *Evaluator, c *XCache, pages ...uint64) {
	t.Helper()
	for _, pg := range pages {
		if !e.CheckCached(c, pg<<xcachePageShift, 8, PermRead) {
			t.Fatalf("fill check of page %#x failed", pg)
		}
	}
}

func TestXCacheHitMissCounters(t *testing.T) {
	s := mkSet(t, Region{Base: 0x10000, Len: 0x10000, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()

	if !e.CheckCached(c, 0x10008, 8, PermRead) {
		t.Fatal("in-bounds check failed")
	}
	if c.Hits != 0 || c.Misses != 1 {
		t.Fatalf("cold check: hits=%d misses=%d, want 0/1", c.Hits, c.Misses)
	}
	for i := 0; i < 10; i++ {
		if !e.CheckCached(c, 0x10010+uint64(i)*8, 8, PermRead) {
			t.Fatal("warm check failed")
		}
	}
	if c.Hits != 10 || c.Misses != 1 {
		t.Fatalf("warm checks: hits=%d misses=%d, want 10/1", c.Hits, c.Misses)
	}
}

func TestXCacheCostParityWithColdWalk(t *testing.T) {
	// The cached fast path must charge exactly what the uncached walk
	// would for an identical access sequence — cycle accounting is part of
	// the model, so the cache may only change host speed.
	mkAccesses := func() [][2]uint64 {
		var out [][2]uint64
		for i := 0; i < 200; i++ {
			// Alternate between two regions so branch-history divergence
			// (the mispredict penalty path) is exercised, not just the
			// steady state.
			if i%3 == 0 {
				out = append(out, [2]uint64{0x30000 + uint64(i%512)*8, 8})
			} else {
				out = append(out, [2]uint64{0x10000 + uint64(i%512)*8, 8})
			}
		}
		return out
	}
	regions := []Region{
		{Base: 0x10000, Len: 0x1000, Perm: PermRW},
		{Base: 0x30000, Len: 0x1000, Perm: PermRW},
		{Base: 0x50000, Len: 0x1000, Perm: PermRead},
	}
	for _, mech := range []Mechanism{MechRange, MechMPX, MechIfTree, MechBinarySearch, MechLinear} {
		plain := NewEvaluator(mech, mkSet(t, regions...))
		cached := NewEvaluator(mech, mkSet(t, regions...))
		c := NewXCache()
		for _, a := range mkAccesses() {
			p := plain.Check(a[0], a[1], PermRead)
			q := cached.CheckCached(c, a[0], a[1], PermRead)
			if p != q {
				t.Fatalf("mech %v: verdict diverges at %#x", mech, a[0])
			}
		}
		if plain.Cycles != cached.Cycles || plain.Checks != cached.Checks {
			t.Errorf("mech %v: cycles %d/%d checks %d/%d diverge (cached vs plain)",
				mech, cached.Cycles, plain.Cycles, cached.Checks, plain.Checks)
		}
		if c.Hits == 0 {
			t.Errorf("mech %v: no cache hits on a repeating access pattern", mech)
		}
	}
}

func TestXCacheFaultsNeverCached(t *testing.T) {
	s := mkSet(t, Region{Base: 0x10000, Len: 0x1000, Perm: PermRead})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()
	for i := 0; i < 5; i++ {
		if e.CheckCached(c, 0x20000, 8, PermRead) {
			t.Fatal("out-of-bounds access permitted")
		}
		// A write to a read-only region must fault even though the page
		// has a cached READ entry.
		if !e.CheckCached(c, 0x10000, 8, PermRead) {
			t.Fatal("read denied")
		}
		if e.CheckCached(c, 0x10000, 8, PermWrite) {
			t.Fatal("write to read-only region permitted")
		}
	}
	if c.Hits == 0 {
		t.Error("read path never hit")
	}
	if len(c.ValidPages()) != 1 {
		t.Errorf("faulting checks populated the cache: %v", c.ValidPages())
	}
}

func TestXCacheInvalidateRangePrecision(t *testing.T) {
	s := mkSet(t, Region{Base: 0, Len: 1 << 20, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()
	// Three distinct pages.
	xcFill(t, e, c, 1, 2, 3)
	if n := len(c.ValidPages()); n != 3 {
		t.Fatalf("cache holds %d pages, want 3", n)
	}
	// Invalidate page 2 only.
	c.InvalidateRange(2<<xcachePageShift, 1<<xcachePageShift)
	pages := c.ValidPages()
	if len(pages) != 2 {
		t.Fatalf("InvalidateRange dropped wrong entries: %v", pages)
	}
	for _, pg := range pages {
		if pg == 2<<xcachePageShift {
			t.Fatal("invalidated page survived")
		}
	}
	if c.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", c.Invalidations)
	}
	// The invalidated page misses; the others still hit.
	h := c.Hits
	if !e.CheckCached(c, 2<<xcachePageShift, 8, PermRead) {
		t.Fatal("re-check failed")
	}
	if c.Hits != h {
		t.Error("invalidated page hit the cache")
	}
	if !e.CheckCached(c, 1<<xcachePageShift, 8, PermRead) || c.Hits != h+1 {
		t.Error("unaffected page lost its entry")
	}
}

func TestXCacheInvalidateRangePartialPageOverlap(t *testing.T) {
	s := mkSet(t, Region{Base: 0, Len: 1 << 20, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()
	xcFill(t, e, c, 4, 5)
	// A byte range straddling the end of page 4 must drop page 4 AND
	// page 5 (both overlap), even though neither is fully covered.
	c.InvalidateRange(4<<xcachePageShift+100, 1<<xcachePageShift)
	if n := len(c.ValidPages()); n != 0 {
		t.Fatalf("straddling invalidation left %d entries", n)
	}
}

func TestXCacheInvalidateAll(t *testing.T) {
	s := mkSet(t, Region{Base: 0, Len: 1 << 20, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()
	xcFill(t, e, c, 1, 2, 3, 4)
	c.InvalidateAll()
	if len(c.ValidPages()) != 0 {
		t.Fatal("InvalidateAll left live entries")
	}
	if c.Invalidations != 4 {
		t.Errorf("Invalidations = %d, want 4", c.Invalidations)
	}
}

func TestXCacheEpochStampSafetyNet(t *testing.T) {
	// Even with NO explicit invalidation, a region-set mutation bumps the
	// epoch and silently expires every cached entry — the last line of
	// defense if an invalidation hook were ever missed.
	s := mkSet(t, Region{Base: 0x10000, Len: 0x10000, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()
	xcFill(t, e, c, 0x10000>>xcachePageShift)
	h, m := c.Hits, c.Misses
	if !e.CheckCached(c, 0x10008, 8, PermRead) {
		t.Fatal("warm check failed")
	}
	if c.Hits != h+1 {
		t.Fatal("warm check did not hit")
	}
	// Mutate the region set behind the cache's back.
	s.Remove(0x18000, 0x1000)
	if !e.CheckCached(c, 0x10008, 8, PermRead) {
		t.Fatal("check after epoch bump failed")
	}
	if c.Misses != m+1 {
		t.Errorf("stale-epoch entry hit: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestXCacheAccessOutsideCachedWindowMisses(t *testing.T) {
	// The cached window is page ∩ region. An access inside the page but
	// outside the region must NOT be admitted by the cached entry.
	s := mkSet(t, Region{Base: 0x10000, Len: 0x100, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	c := NewXCache()
	if !e.CheckCached(c, 0x10000, 8, PermRead) {
		t.Fatal("in-region check failed")
	}
	if e.CheckCached(c, 0x10200, 8, PermRead) {
		t.Fatal("access beyond region end permitted by cached page entry")
	}
	// Spanning the region end must also fault.
	if e.CheckCached(c, 0x100f8, 16, PermRead) {
		t.Fatal("access spanning region end permitted")
	}
}

// TestXSlotHoldsNoPointer pins the cache's layout: a slot is 96 bytes of
// scalars (88 before the generation word), and the cache's one
// pointer-bearing field is the deep-walk side table, first, so a thread's
// cache is a mostly-unscanned allocation.
func TestXSlotHoldsNoPointer(t *testing.T) {
	if got := unsafe.Sizeof(xslot{}); got != 96 {
		t.Errorf("xslot is %d bytes, want 96", got)
	}
	st := reflect.TypeOf(xslot{})
	for i := 0; i < st.NumField(); i++ {
		switch f := st.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("xslot.%s is a %s: a slot must hold no pointer", f.Name, f.Type)
		}
	}
	ct := reflect.TypeOf(XCache{})
	if f := ct.Field(0); f.Name != "more" || f.Offset != 0 {
		t.Errorf("XCache's first field is %s at %d, want the side table at 0", f.Name, f.Offset)
	}
	for i := 1; i < ct.NumField(); i++ {
		if f := ct.Field(i); f.Type.Kind() != reflect.Uint64 && f.Type.Kind() != reflect.Array {
			t.Errorf("XCache.%s is a %s: the side table must be its only pointer", f.Name, f.Type)
		}
	}
}

// TestXCacheDeepWalkParity: walks deeper than a slot's inline steps replay
// their spilled remainder from the side table at exactly the uncached cost.
func TestXCacheDeepWalkParity(t *testing.T) {
	var regions []Region
	for i := uint64(0); i < 256; i++ {
		regions = append(regions, Region{Base: (2*i + 1) << 16, Len: 1 << 12, Perm: PermRW})
	}
	for _, mech := range []Mechanism{MechIfTree, MechBinarySearch} {
		plain := NewEvaluator(mech, mkSet(t, regions...))
		cached := NewEvaluator(mech, mkSet(t, regions...))
		c := NewXCache()
		for i := uint64(0); i < 2000; i++ {
			addr := (2*(i%12*21)+1)<<16 + i%64*8 // 12 pages of 12 regions, revisited
			if plain.Check(addr, 8, PermRead) != cached.CheckCached(c, addr, 8, PermRead) {
				t.Fatalf("mech %v: verdict diverges at %#x", mech, addr)
			}
		}
		if plain.Cycles != cached.Cycles {
			t.Errorf("mech %v: cycles %d cached, %d plain", mech, cached.Cycles, plain.Cycles)
		}
		if c.more == nil || c.Hits == 0 {
			t.Errorf("mech %v: %d hits, side table %v: the fixture never replayed a spilled walk", mech, c.Hits, c.more != nil)
		}
	}
}

// TestRecycledXCacheNeverHitsAPreviousOwner: a cache Reset for a new owner
// must not trust an entry its previous owner filled, even when the new
// owner's region set happens to stand at the same epoch number — the epoch
// stamp alone cannot tell two region sets apart; the generation can.
func TestRecycledXCacheNeverHitsAPreviousOwner(t *testing.T) {
	const page = 0x10000 >> xcachePageShift
	a := mkSet(t, Region{Base: 0x10000, Len: 0x1000, Perm: PermRW})
	b := mkSet(t, Region{Base: 0x80000, Len: 0x1000, Perm: PermRW}) // page not granted
	if a.Epoch != b.Epoch {
		t.Fatalf("fixture: epochs %d and %d differ", a.Epoch, b.Epoch)
	}
	c := NewXCache()
	ea := NewEvaluator(MechRange, a)
	xcFill(t, ea, c, page)
	if !ea.CheckCached(c, 0x10008, 8, PermRead) || c.Hits != 1 {
		t.Fatalf("previous owner's entry never hit (hits=%d)", c.Hits)
	}
	c.Reset()
	if c.Hits+c.Misses+c.Invalidations != 0 || len(c.ValidPages()) != 0 {
		t.Fatalf("Reset left counters %d/%d/%d and pages %v", c.Hits, c.Misses, c.Invalidations, c.ValidPages())
	}
	eb := NewEvaluator(MechRange, b)
	if _, hit := eb.CheckTranslateCached(c, 0x10008, 8, PermRead); hit {
		t.Fatal("the fused probe hit the previous owner's entry")
	}
	if eb.CheckCached(c, 0x10008, 8, PermRead) {
		t.Fatal("a page the new owner was never granted passed its check")
	}
	if c.Hits != 0 || c.Misses != 1 || eb.Faults != 1 {
		t.Errorf("hits=%d misses=%d faults=%d, want 0/1/1", c.Hits, c.Misses, eb.Faults)
	}
}

// TestXCacheInvalidateRangeMatchesScan: page-probe invalidation (ranges up
// to a quarter of the cache) and the whole-cache scan (wider ones) drop
// exactly the live entries a scan of every slot would, for every
// permission a check asks for, and count exactly those.
func TestXCacheInvalidateRangeMatchesScan(t *testing.T) {
	s := mkSet(t, Region{Base: 0, Len: 1 << 30, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	for _, n := range []uint64{1, 3, xcacheSlots / 4, xcacheSlots/4 + 1, 4 * xcacheSlots} {
		c := NewXCache()
		for pg := uint64(0); pg < 2*xcacheSlots; pg += 1 + pg%3 {
			for _, p := range xcachePerms {
				if !e.CheckCached(c, pg<<xcachePageShift, 8, p) {
					t.Fatalf("fill of page %#x failed", pg)
				}
			}
		}
		first := uint64(xcacheSlots) // the lowest live page past a quarter
		for i := range c.slots {
			if pg := c.slots[i].key >> 8; c.live(&c.slots[i]) && pg >= xcacheSlots/4 {
				first = min(first, pg)
			}
		}
		var want []uint64
		dropped := uint64(0)
		for i := range c.slots {
			sl := &c.slots[i]
			if pg := sl.key >> 8; !c.live(sl) {
				continue
			} else if pg >= first && pg < first+n {
				dropped++
			} else {
				want = append(want, pg<<xcachePageShift)
			}
		}
		c.InvalidateRange(first<<xcachePageShift+17, n<<xcachePageShift-17)
		if got := c.ValidPages(); !reflect.DeepEqual(got, want) {
			t.Errorf("%d pages: %d entries survive, want %d", n, len(got), len(want))
		}
		if c.Invalidations != dropped || dropped == 0 {
			t.Errorf("%d pages: Invalidations = %d, want %d (> 0)", n, c.Invalidations, dropped)
		}
		c.InvalidateAll()
		if c.Invalidations != dropped+uint64(len(want)) || len(c.ValidPages()) != 0 {
			t.Errorf("%d pages: a flush after the range counted %d, want %d", n, c.Invalidations-dropped, len(want))
		}
	}
}

// BenchmarkXCacheInvalidate times a flush (InvalidateAll) and a one-page
// InvalidateRange on a cache holding 64 and 1024 live entries. Both should
// be flat in the entry count: a flush bumps the generation, a one-page
// range probes one slot per permission. Run it under a build with a smaller
// xcacheBits, or at the parent commit, for the scanning implementation:
//
//	go test -run '^$' -bench XCacheInvalidate ./internal/guard/
func BenchmarkXCacheInvalidate(b *testing.B) {
	s := mkSet(b, Region{Base: 0, Len: 1 << 30, Perm: PermRW})
	e := NewEvaluator(MechRange, s)
	for _, entries := range []int{64, 1024} {
		full := NewXCache() // entries distinct pages, or every slot if fewer
		for pg := uint64(0); len(full.ValidPages()) < min(entries, xcacheSlots); pg++ {
			if !e.CheckCached(full, pg<<xcachePageShift, 8, PermRead) {
				b.Fatal("fill failed")
			}
		}
		b.Run("all/entries-"+strconv.Itoa(entries), func(b *testing.B) {
			c := *full
			for i := 0; i < b.N; i++ {
				c.InvalidateAll()
				c.gen, c.nlive = full.gen, full.nlive // refill: every slot is live again
			}
		})
		b.Run("range/entries-"+strconv.Itoa(entries), func(b *testing.B) {
			c := *full
			for i := 0; i < b.N; i++ {
				c.InvalidateRange(0, 1<<xcachePageShift)
			}
		})
	}
}
