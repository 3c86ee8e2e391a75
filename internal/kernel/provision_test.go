package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"carat/internal/guard"
)

// The page-provisioning data plane (PhysMem.Zero/Move, the word-wise
// PageAllocator) replaced per-byte and per-page loops. The loops live on here
// as the oracles: the replacements must agree with them on every result,
// error and byte, because physical addresses and memory contents feed every
// digest the repository pins.

// refZero is PhysMem.Zero as it was: a byte-at-a-time index loop.
func refZero(m *PhysMem, addr, n uint64) error {
	if !m.InBounds(addr, n) {
		return fmt.Errorf("kernel: zero [%#x,%#x) out of bounds", addr, addr+n)
	}
	for i := addr; i < addr+n; i++ {
		m.data[i] = 0
	}
	return nil
}

// refMove is PhysMem.Move as it was: copy, then a byte-wise source wipe.
func refMove(m *PhysMem, dst, src, n uint64) error {
	if !m.InBounds(src, n) || !m.InBounds(dst, n) {
		return fmt.Errorf("kernel: move [%#x,%#x)->[%#x,%#x) out of bounds", src, src+n, dst, dst+n)
	}
	if src < dst+n && dst < src+n {
		return fmt.Errorf("kernel: move ranges overlap")
	}
	copy(m.data[dst:dst+n], m.data[src:src+n])
	for i := src; i < src+n; i++ {
		m.data[i] = 0
	}
	return nil
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// refStore is StoreN (and Store64, n = 8) as a byte loop; like the real
// ones it does not bounds-check.
func refStore(m *PhysMem, addr, v uint64, n int) {
	for i := 0; i < n; i++ {
		m.data[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// refWriteAt is PhysMem.WriteAt as a byte loop.
func refWriteAt(m *PhysMem, addr uint64, b []byte) error {
	if !m.InBounds(addr, uint64(len(b))) {
		return fmt.Errorf("kernel: physical write [%#x,%#x) out of bounds", addr, addr+uint64(len(b)))
	}
	for i, c := range b {
		m.data[addr+uint64(i)] = c
	}
	return nil
}

// allZero reports whether b holds no nonzero byte.
func allZero(b []byte) bool { return bytes.Count(b, []byte{0}) == len(b) }

// dirtyInvariant checks invariant D of the page-dirty map: a page marked
// clean holds no nonzero byte. (A dirty page may be all zero.)
func dirtyInvariant(m *PhysMem) error {
	if uint64(len(m.dirty)) != m.Pages() {
		return fmt.Errorf("dirty map covers %d pages, memory has %d", len(m.dirty), m.Pages())
	}
	for p, d := range m.dirty {
		if d == 0 && !allZero(m.data[p*PageSize:(p+1)*PageSize]) {
			return fmt.Errorf("page %d is marked clean but holds a nonzero byte", p)
		}
	}
	return nil
}

// checkAgainstModel is the per-step check shared by the oracle test and
// FuzzPhysMemDirty: same bytes as the byte-loop model, and D.
func checkAgainstModel(t testing.TB, got, want *PhysMem, step int, op string) {
	t.Helper()
	if !bytes.Equal(got.data, want.data) {
		t.Fatalf("step %d (%s): memory image differs from the byte-loop reference", step, op)
	}
	if err := dirtyInvariant(got); err != nil {
		t.Fatalf("step %d (%s): %v", step, op, err)
	}
}

func TestPhysMemBulkKernelsMatchByteLoops(t *testing.T) {
	const size = 8 * PageSize
	rng := rand.New(rand.NewSource(14))
	got, want := NewPhysMem(size), NewPhysMem(size)
	// refill rewrites the whole image behind the API's back, so it sets the
	// map to match: about a third of the pages are left genuinely clean (the
	// scrub must skip them and split its clears around them), a few are
	// marked dirty while holding only zeros (allowed: D is one-sided), the
	// rest are noise.
	refill := func() {
		for p := 0; p < size/PageSize; p++ {
			pg := got.data[p*PageSize : (p+1)*PageSize]
			switch r := rng.Intn(10); {
			case r < 3:
				clear(pg)
				got.dirty[p] = 0
			case r < 4:
				clear(pg)
				got.dirty[p] = 1
			default:
				rng.Read(pg)
				got.dirty[p] = 1
			}
		}
		copy(want.data, got.data)
	}
	// pick draws addresses and lengths around the edges the bounds and
	// overlap checks guard: 0, page boundaries, the last byte, past the end,
	// and lengths that wrap addr+n.
	pick := func() uint64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return size - 1 - uint64(rng.Intn(3))
		case 2:
			return size + uint64(rng.Intn(3))
		case 3:
			return uint64(rng.Intn(8))*PageSize + uint64(rng.Intn(5)) - 2
		case 4:
			return ^uint64(0) - uint64(rng.Intn(16))
		default:
			return uint64(rng.Intn(size))
		}
	}
	length := func() uint64 {
		switch rng.Intn(7) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(3 * PageSize)) // page-straddling
		case 2:
			return pick()
		case 3:
			return uint64(1+rng.Intn(4)) * PageSize // whole pages, when addr is aligned
		default:
			return uint64(rng.Intn(300))
		}
	}
	// edge draws a store address from 7 bytes below to 1 byte above a page
	// boundary, kept inside memory for an n-byte store.
	edge := func(n int) uint64 {
		addr := uint64(1+rng.Intn(8))*PageSize + uint64(rng.Intn(9)) - 7
		return min(addr, size-uint64(n))
	}
	var okZero, okMove, badZero, badMove, straddles int
	for i := 0; i < 4000; i++ {
		// Most steps run on what the previous ones left, so a sub-page clear
		// is followed by whole-page ones over the same still-dirty page.
		if i%4 == 0 {
			refill()
		}
		var op string
		switch i % 8 {
		case 0, 2, 4:
			addr, n := pick(), length()
			if i%64 == 0 {
				addr, n = size-1, 1 // the last byte of memory
			}
			if i%16 == 2 {
				addr &^= PageSize - 1 // whole-page scrubs, as GrantRegion issues them
			}
			op = fmt.Sprintf("Zero(%#x, %d)", addr, n)
			ge, we := got.Zero(addr, n), refZero(want, addr, n)
			if !sameErr(ge, we) {
				t.Fatalf("%s: err %v, reference %v", op, ge, we)
			}
			if ge == nil {
				okZero++
			} else {
				badZero++
			}
		case 1, 3, 5:
			dst, src, n := pick(), pick(), length()
			if i%5 == 0 && n < size {
				dst = src + uint64(rng.Intn(int(n+2))) // overlapping or abutting
			}
			op = fmt.Sprintf("Move(%#x, %#x, %d)", dst, src, n)
			ge, we := got.Move(dst, src, n), refMove(want, dst, src, n)
			if !sameErr(ge, we) {
				t.Fatalf("%s: err %v, reference %v", op, ge, we)
			}
			if ge == nil {
				okMove++
			} else {
				badMove++
			}
		case 6:
			n := 1 << rng.Intn(4)
			addr, v := edge(n), rng.Uint64()|1<<(8*n-1)|1 // first and last byte nonzero
			if addr/PageSize != (addr+uint64(n)-1)/PageSize {
				straddles++
			}
			if n == 8 && rng.Intn(2) == 0 {
				op = fmt.Sprintf("Store64(%#x)", addr)
				got.Store64(addr, v)
			} else {
				op = fmt.Sprintf("StoreN(%#x, %d)", addr, n)
				got.StoreN(addr, v, n)
			}
			refStore(want, addr, v, n)
		case 7:
			addr := pick()
			b := make([]byte, length()%(3*PageSize))
			rng.Read(b)
			op = fmt.Sprintf("WriteAt(%#x, %d bytes)", addr, len(b))
			if ge, we := got.WriteAt(addr, b), refWriteAt(want, addr, b); !sameErr(ge, we) {
				t.Fatalf("%s: err %v, reference %v", op, ge, we)
			}
		}
		checkAgainstModel(t, got, want, i, op)
	}
	if okZero < 200 || okMove < 200 || badZero < 200 || badMove < 200 || straddles < 100 {
		t.Errorf("weak coverage: zero ok/err %d/%d, move ok/err %d/%d, straddling stores %d",
			okZero, badZero, okMove, badMove, straddles)
	}
}

// refAllocator is the PageAllocator as it was: one blocked(p)/mark(p) call
// per page. Same fields, same three-window scan order.
type refAllocator struct {
	bitmap             []uint64
	pages, free        uint64
	scanPos            uint64
	isoStart, isoLen   uint64
	prefStart, prefLen uint64
}

func newRefAllocator(n uint64) *refAllocator {
	a := &refAllocator{bitmap: make([]uint64, (n+63)/64), pages: n, free: n - 1}
	a.mark(0, true)
	return a
}

func (a *refAllocator) inUse(p uint64) bool { return a.bitmap[p/64]&(1<<(p%64)) != 0 }

func (a *refAllocator) mark(p uint64, used bool) {
	if used {
		a.bitmap[p/64] |= 1 << (p % 64)
	} else {
		a.bitmap[p/64] &^= 1 << (p % 64)
	}
}

func (a *refAllocator) blocked(p uint64) bool {
	if a.inUse(p) {
		return true
	}
	return a.isoLen != 0 && p >= a.isoStart && p < a.isoStart+a.isoLen
}

func (a *refAllocator) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("kernel: zero-page allocation")
	}
	if n > a.free {
		return 0, fmt.Errorf("%w (%d pages requested, %d free)", ErrNoMemory, n, a.free)
	}
	try := func(from, to uint64) (uint64, bool) {
		if to > a.pages {
			to = a.pages
		}
		var run, start uint64
		for p := from; p < to; p++ {
			if a.blocked(p) {
				run = 0
				continue
			}
			if run == 0 {
				start = p
			}
			run++
			if run == n {
				return start, true
			}
		}
		return 0, false
	}
	var start uint64
	ok := false
	if a.prefLen != 0 {
		start, ok = try(a.prefStart, a.prefStart+a.prefLen)
	}
	if !ok {
		start, ok = try(a.scanPos, a.pages)
	}
	if !ok {
		start, ok = try(1, a.scanPos+n)
	}
	if !ok {
		return 0, fmt.Errorf("%w: no contiguous run of %d pages", ErrNoMemory, n)
	}
	for p := start; p < start+n; p++ {
		a.mark(p, true)
	}
	a.free -= n
	a.scanPos = start + n
	return start * PageSize, nil
}

func (a *refAllocator) Free(addr, n uint64) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("kernel: free of unaligned address %#x", addr)
	}
	start := addr / PageSize
	if start+n > a.pages {
		return fmt.Errorf("kernel: free beyond memory end")
	}
	for p := start; p < start+n; p++ {
		if !a.inUse(p) {
			return fmt.Errorf("kernel: double free of page %d", p)
		}
	}
	for p := start; p < start+n; p++ {
		a.mark(p, false)
	}
	a.free += n
	return nil
}

func (a *refAllocator) FragStats() FragStats {
	fs := FragStats{TotalPages: a.pages, FreePages: a.free}
	var run uint64
	endRun := func() {
		if run == 0 {
			return
		}
		fs.FreeRuns++
		if run > fs.LargestRun {
			fs.LargestRun = run
		}
		bucket := 0
		for r := run; r > 1; r >>= 1 {
			bucket++
		}
		for len(fs.RunHist) <= bucket {
			fs.RunHist = append(fs.RunHist, 0)
		}
		fs.RunHist[bucket]++
		run = 0
	}
	for p := uint64(0); p < a.pages; p++ {
		if a.inUse(p) {
			endRun()
		} else {
			run++
		}
	}
	endRun()
	if fs.FreePages > 0 {
		fs.Score = 1 - float64(fs.LargestRun)/float64(fs.FreePages)
	}
	return fs
}

// TestAllocatorMatchesPerPageScanner replays seeded alloc/free/Isolate/
// Prefer traces against the per-page reference and requires the same
// address, the same error text, the same scan hint and the same FragStats
// after every step. The page counts straddle word boundaries on purpose.
func TestAllocatorMatchesPerPageScanner(t *testing.T) {
	for _, pages := range []uint64{1000, 64, 129} {
		pages := pages
		t.Run(fmt.Sprint(pages), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(pages)))
			got, want := NewPageAllocator(pages), newRefAllocator(pages)
			type span struct{ addr, n uint64 }
			var live []span
			var allocs, allocErrs, frees, freeErrs int
			for step := 0; step < 10000; step++ {
				switch op := rng.Intn(100); {
				case op < 45:
					n := uint64(rng.Intn(12))
					switch rng.Intn(10) {
					case 0:
						n = 60 + uint64(rng.Intn(80)) // spans whole words
					case 1:
						n = pages / 2
					}
					ga, ge := got.Alloc(n)
					wa, we := want.Alloc(n)
					if ga != wa || !sameErr(ge, we) {
						t.Fatalf("step %d: Alloc(%d) = %#x, %v; reference %#x, %v", step, n, ga, ge, wa, we)
					}
					if ge == nil {
						live = append(live, span{ga, n})
						allocs++
					} else {
						allocErrs++
						if n != 0 && !errors.Is(ge, ErrNoMemory) {
							t.Fatalf("step %d: Alloc(%d) error %v does not wrap ErrNoMemory", step, n, ge)
						}
					}
				case op < 85 && len(live) > 0:
					i := rng.Intn(len(live))
					s := live[i]
					live = append(live[:i], live[i+1:]...)
					// Mostly whole spans; sometimes a prefix (the tail stays
					// live), sometimes past the end (a double free or an
					// out-of-range free), sometimes unaligned.
					addr, n := s.addr, s.n
					switch rng.Intn(12) {
					case 0:
						if n > 1 {
							n = 1 + uint64(rng.Intn(int(n-1)))
							live = append(live, span{s.addr + n*PageSize, s.n - n})
						}
					case 1:
						n += 1 + uint64(rng.Intn(70))
						live = append(live, s)
					case 2:
						addr += 8
						live = append(live, s)
					}
					ge, we := got.Free(addr, n), want.Free(addr, n)
					if !sameErr(ge, we) {
						t.Fatalf("step %d: Free(%#x, %d) = %v; reference %v", step, addr, n, ge, we)
					}
					if ge == nil {
						frees++
					} else {
						freeErrs++
					}
				case op < 90:
					start, n := uint64(rng.Intn(int(pages))), uint64(rng.Intn(int(pages/3)))
					got.Isolate(start, n)
					want.isoStart, want.isoLen = start, n
				case op < 93:
					got.ClearIsolation()
					want.isoLen = 0
				case op < 97:
					start, n := uint64(rng.Intn(int(pages))), uint64(rng.Intn(int(pages/2)))
					got.Prefer(start, n)
					want.prefStart, want.prefLen = start, n
				default:
					got.ClearPreference()
					want.prefStart, want.prefLen = 0, 0
				}
				if got.scanPos != want.scanPos || got.FreePages() != want.free {
					t.Fatalf("step %d: scanPos/free = %d/%d, reference %d/%d",
						step, got.scanPos, got.FreePages(), want.scanPos, want.free)
				}
				if g, w := got.FragStats(), want.FragStats(); !reflect.DeepEqual(g, w) {
					t.Fatalf("step %d: FragStats = %+v, reference %+v", step, g, w)
				}
			}
			if !reflect.DeepEqual(got.bitmap, want.bitmap) {
				t.Error("final bitmaps differ")
			}
			if allocs < 500 || allocErrs < 20 || frees < 500 || freeErrs < 50 {
				t.Errorf("weak coverage: alloc ok/err %d/%d, free ok/err %d/%d", allocs, allocErrs, frees, freeErrs)
			}
		})
	}
}

func TestOwnedPageCountReturnsToZero(t *testing.T) {
	k := New(1 << 22)
	free := k.Alloc.FreePages()
	var procs []*Process
	for i := 0; i < 3; i++ {
		p := k.NewProcess()
		for _, sz := range []uint64{PageSize, 5 * PageSize, 17 * PageSize} {
			if _, err := p.GrantRegion(sz, guard.PermRW); err != nil {
				t.Fatal(err)
			}
		}
		procs = append(procs, p)
	}
	if n := k.OwnedPageCount(); n != 3*23 {
		t.Errorf("OwnedPageCount = %d, want %d", n, 3*23)
	}
	for _, p := range procs {
		if err := p.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := k.OwnedPageCount(); n != 0 {
		t.Errorf("OwnedPageCount = %d after ReleaseAll, want 0", n)
	}
	if got := k.Alloc.FreePages(); got != free {
		t.Errorf("free pages = %d, want %d", got, free)
	}
}

// TestGrantRegionFailureLeaksNothing forces Regions.Add to refuse a grant
// after its frames were allocated (a stale read-only region covers all of
// memory): the frames, the owned-page count, the limiter reservation and the
// page_allocs count must all be back at baseline.
func TestGrantRegionFailureLeaksNothing(t *testing.T) {
	k := New(1 << 20)
	lim := &testLimiter{max: 1 << 20}
	p := k.NewProcess()
	p.SetLimiter(lim)
	free := k.Alloc.FreePages()
	if err := p.Regions.Add(guard.Region{Base: PageSize, Len: k.Mem.Size() - PageSize, Perm: guard.PermRead}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.GrantRegion(8*PageSize, guard.PermRW); err == nil {
		t.Fatal("grant over a conflicting region succeeded")
	}
	if got := k.Alloc.FreePages(); got != free {
		t.Errorf("free pages = %d, want %d", got, free)
	}
	if n := k.OwnedPageCount(); n != 0 {
		t.Errorf("OwnedPageCount = %d, want 0", n)
	}
	if lim.live != 0 {
		t.Errorf("limiter holds %d pages, want 0", lim.live)
	}
	if n := k.Stats.PageAllocs.Get(); n != 0 {
		t.Errorf("page_allocs = %d after a failed grant, want 0", n)
	}
	// The process is still usable once the conflict is gone.
	p.Regions.Remove(PageSize, k.Mem.Size()-PageSize)
	if _, err := p.GrantRegion(8*PageSize, guard.PermRW); err != nil {
		t.Errorf("grant after clearing the conflict: %v", err)
	}
}
