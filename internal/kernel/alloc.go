package kernel

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrNoMemory is wrapped by every allocation failure caused by exhaustion
// or fragmentation of physical memory (as opposed to caller mistakes like
// a zero-page request). The caratd admission layer matches on it to map
// transient memory pressure to 429 responses.
var ErrNoMemory = errors.New("kernel: out of physical memory")

// PageAllocator hands out physical page frames. It supports contiguous
// multi-page allocation with a first-fit scan over a bitmap, which is all
// the CARAT kernel needs: region-sized contiguous grants for code, data,
// stack, and heap, plus single-page allocations for demand paging.
//
// All methods are safe for concurrent use: one allocator is shared by
// every process of a machine, and under caratd processes are created and
// torn down from concurrent request goroutines.
type PageAllocator struct {
	mu      sync.Mutex
	bitmap  []uint64 // 1 = in use
	pages   uint64
	free    uint64
	scanPos uint64 // next-fit hint

	// isoStart/isoLen, when isoLen != 0, exclude a page window from
	// allocation: free pages inside it are treated as busy by Alloc. This
	// models Linux's MIGRATE_ISOLATE pageblock isolation — a compaction
	// daemon isolates its target window so move destinations cannot land
	// inside the run it is trying to assemble.
	isoStart, isoLen uint64
	// prefStart/prefLen, when prefLen != 0, is a window Alloc tries first
	// (NUMA home-node placement preference).
	prefStart, prefLen uint64
}

// NewPageAllocator manages n pages; page 0 is permanently reserved so that
// physical address 0 (null) is never handed out.
func NewPageAllocator(n uint64) *PageAllocator {
	a := &PageAllocator{
		bitmap: make([]uint64, (n+63)/64),
		pages:  n,
		free:   n,
	}
	a.markRange(0, 1, true)
	a.free--
	return a
}

// FreePages returns the number of currently free page frames.
func (a *PageAllocator) FreePages() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.free
}

// TotalPages returns the managed page count.
func (a *PageAllocator) TotalPages() uint64 { return a.pages }

func (a *PageAllocator) inUse(p uint64) bool { return a.bitmap[p/64]&(1<<(p%64)) != 0 }

// rangeMask returns the bits of bitmap word w whose pages lie in [lo, hi).
func rangeMask(w, lo, hi uint64) uint64 {
	base := w * 64
	if hi <= base || lo >= base+64 {
		return 0
	}
	m := ^uint64(0)
	if lo > base {
		m <<= lo - base
	}
	if hi < base+64 {
		m &= ^uint64(0) >> (base + 64 - hi)
	}
	return m
}

// markRange sets or clears the in-use bits of pages [start, start+n), a
// word at a time.
func (a *PageAllocator) markRange(start, n uint64, used bool) {
	for w := start / 64; w*64 < start+n; w++ {
		if m := rangeMask(w, start, start+n); used {
			a.bitmap[w] |= m
		} else {
			a.bitmap[w] &^= m
		}
	}
}

// findRun returns the first page s such that [s, s+n) lies inside
// [from, to) and holds no page Alloc must skip: in use, or free but inside
// the isolation window. One step per bitmap word, however fragmented.
func (a *PageAllocator) findRun(from, to, n uint64) (uint64, bool) {
	to = min(to, a.pages)
	var run uint64 // free pages ending where the current word begins
	for w := from / 64; w*64 < to; w++ {
		// f has a 1 for every page of word w that may be handed out.
		f := ^a.bitmap[w] & rangeMask(w, from, to)
		if a.isoLen != 0 {
			f &^= rangeMask(w, a.isoStart, a.isoStart+a.isoLen)
		}
		lo := uint64(bits.TrailingZeros64(^f))
		if run+lo >= n {
			return w*64 - run, true
		}
		if lo == 64 {
			run += 64
			continue
		}
		if n < 64 {
			// A run wholly inside the word: after the loop, bit s of g is
			// set iff pages s..s+n-1 of the word are all available.
			g := f
			for have := uint64(1); have < n; {
				step := min(have, n-have)
				g &= g >> step
				have += step
			}
			if g != 0 {
				return w*64 + uint64(bits.TrailingZeros64(g)), true
			}
		}
		run = uint64(bits.LeadingZeros64(^f))
	}
	return 0, false
}

// Alloc grabs n contiguous page frames and returns the physical address of
// the first.
func (a *PageAllocator) Alloc(n uint64) (uint64, error) {
	if n == 0 {
		return 0, fmt.Errorf("kernel: zero-page allocation")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.free {
		return 0, fmt.Errorf("%w (%d pages requested, %d free)", ErrNoMemory, n, a.free)
	}
	var start uint64
	ok := false
	if a.prefLen != 0 {
		start, ok = a.findRun(a.prefStart, a.prefStart+a.prefLen, n)
	}
	if !ok {
		start, ok = a.findRun(a.scanPos, a.pages, n)
	}
	if !ok {
		start, ok = a.findRun(1, a.scanPos+n, n)
	}
	if !ok {
		return 0, fmt.Errorf("%w: no contiguous run of %d pages", ErrNoMemory, n)
	}
	a.markRange(start, n, true)
	a.free -= n
	a.scanPos = start + n
	return start * PageSize, nil
}

// Free releases n contiguous page frames starting at physical address addr
// (which must be page-aligned).
func (a *PageAllocator) Free(addr, n uint64) error {
	if addr%PageSize != 0 {
		return fmt.Errorf("kernel: free of unaligned address %#x", addr)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	start := addr / PageSize
	if start+n > a.pages {
		return fmt.Errorf("kernel: free beyond memory end")
	}
	for w := start / 64; w*64 < start+n; w++ {
		if miss := rangeMask(w, start, start+n) &^ a.bitmap[w]; miss != 0 {
			return fmt.Errorf("kernel: double free of page %d", w*64+uint64(bits.TrailingZeros64(miss)))
		}
	}
	a.markRange(start, n, false)
	a.free += n
	return nil
}

// Reserved reports whether the page containing addr is allocated.
func (a *PageAllocator) Reserved(addr uint64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	p := addr / PageSize
	return p < a.pages && a.inUse(p)
}

// Isolate excludes the page window [start, start+pages) from allocation
// until ClearIsolation: free pages inside it are skipped by Alloc. Frees
// are unaffected, so a compaction pass can drain the window while keeping
// new allocations (including move destinations) out of it.
func (a *PageAllocator) Isolate(start, pages uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.isoStart, a.isoLen = start, pages
}

// ClearIsolation lifts the isolation window.
func (a *PageAllocator) ClearIsolation() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.isoLen = 0
}

// Prefer makes Alloc try the page window [start, start+pages) before the
// regular next-fit scan, until ClearPreference. Allocations that do not
// fit the window fall back to the whole machine.
func (a *PageAllocator) Prefer(start, pages uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prefStart, a.prefLen = start, pages
}

// ClearPreference lifts the placement preference.
func (a *PageAllocator) ClearPreference() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.prefStart, a.prefLen = 0, 0
}

// FragStats summarizes external fragmentation from the raw bitmap (the
// isolation window does not count as busy here): the free-run histogram
// and largest contiguous free run a defragmentation policy steers by.
type FragStats struct {
	TotalPages uint64 `json:"total_pages"`
	FreePages  uint64 `json:"free_pages"`
	// FreeRuns counts maximal runs of contiguous free pages.
	FreeRuns uint64 `json:"free_runs"`
	// LargestRun is the longest contiguous free run, in pages.
	LargestRun uint64 `json:"largest_run"`
	// RunHist[i] counts free runs with length in [2^i, 2^(i+1)).
	RunHist []uint64 `json:"run_hist"`
	// Score is 1 - LargestRun/FreePages: 0 when all free memory is one
	// run, approaching 1 as free memory shatters into single pages.
	Score float64 `json:"score"`
}

// FragStats scans the bitmap and returns the current fragmentation
// picture.
func (a *PageAllocator) FragStats() FragStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	fs := FragStats{TotalPages: a.pages, FreePages: a.free}
	var run uint64
	endRun := func() {
		if run == 0 {
			return
		}
		fs.FreeRuns++
		fs.LargestRun = max(fs.LargestRun, run)
		bucket := bits.Len64(run) - 1
		for len(fs.RunHist) <= bucket {
			fs.RunHist = append(fs.RunHist, 0)
		}
		fs.RunHist[bucket]++
		run = 0
	}
	for w := range a.bitmap {
		// Walk the word's runs from page w*64 up; f has a 1 for every free
		// page, left is how many of its low bits are still unread.
		f := ^a.bitmap[w] & rangeMask(uint64(w), 0, a.pages)
		for left := 64; left > 0; {
			free := bits.TrailingZeros64(^f) // <= left: the bits read so far shifted zeros in
			run += uint64(free)
			if left -= free; left == 0 {
				break // the run may go on in the next word
			}
			endRun()
			f >>= free
			used := min(bits.TrailingZeros64(f), left)
			f >>= used
			left -= used
		}
	}
	endRun()
	if fs.FreePages > 0 {
		fs.Score = 1 - float64(fs.LargestRun)/float64(fs.FreePages)
	}
	return fs
}
