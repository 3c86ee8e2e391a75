package vm

import (
	"fmt"
	"slices"
	"sync/atomic"

	"carat/internal/kernel"
	"carat/internal/runtime"
)

// heap is the process's dynamic memory allocator: a bump allocator with
// size-class free lists over the kernel-granted heap region. Its metadata is
// keyed by slot, not by address: a block's key is its page's slot plus its
// offset in the page, and a page the kernel moves keeps its slot, so rebase
// — which the VM's move listener calls whenever the kernel relocates pages —
// re-points one table entry per whole page it moves, and touches no block's
// class. A page of the region as granted is its own slot while it is home,
// which the table does not spell out: it holds only the pages away from home
// and the slots they carry.
type heap struct {
	base, end, brk uint64
	// freeLists maps a size class to reusable blocks' keys.
	freeLists map[uint64][]uint64
	// classes holds each block's size class by key; nil until the first.
	classes *classTable

	// [homeLo, homeHi) are the pages of the region as granted.
	homeLo, homeHi uint64
	// slots maps a page to the slot its blocks are keyed under, where that
	// differs from the page itself; vacant marks a home page whose slot is
	// away and which holds no other. Both tables stay nil until a page
	// leaves home: most processes never move one.
	slots map[uint64]uint64
	// pages maps a slot away from home to the page that holds it.
	pages map[uint64]uint64
	// nextSlot is the slot a page outside the region takes when it first
	// comes to hold a block.
	nextSlot uint64
}

const (
	heapAlign = 16
	heapPage  = kernel.PageSize
	// freeBit marks a free block's class: classes are multiples of
	// heapAlign.
	freeBit = 1
	// vacant is no slot: slots are page-aligned.
	vacant = 1
	// MaxHeapBytes bounds Config.HeapBytes: no class reaches it, so a class
	// page's 32-bit entry holds class>>3 whole.
	MaxHeapBytes = 1 << 35
)

// classPage holds the class of each block starting on one slot page, by
// offset/heapAlign: class>>3 | freeBit, 0 where no block starts.
type classPage [heapPage / heapAlign]uint32

// classTable is a heap's class pages by (slot−homeLo)/heapPage, nil where no
// block has started. VM.Release hands a table back whole, so pages[len:cap]
// hold an earlier heap's classes: a heap clears each as it first reaches it.
type classTable struct{ pages []*classPage }

var (
	classTables    runtime.Pool[classTable]
	classPagesMade atomic.Uint64
)

func newHeap(base, size uint64) heap {
	lo, hi := base&^(heapPage-1), alignTo(base+size, heapPage)
	return heap{
		base: base, end: base + size, brk: base,
		freeLists: make(map[uint64][]uint64),
		homeLo:    lo, homeHi: hi, nextSlot: hi,
	}
}

func sizeClass(n uint64) uint64 {
	if n < heapAlign {
		n = heapAlign
	}
	return (n + heapAlign - 1) &^ (heapAlign - 1)
}

// class returns the class of the block keyed k, freeBit included; 0 when no
// block starts there.
func (h *heap) class(k uint64) uint64 {
	if i := (k - h.homeLo) / heapPage; h.classes != nil && i < uint64(len(h.classes.pages)) && h.classes.pages[i] != nil {
		e := h.classes.pages[i][k%heapPage/heapAlign]
		return uint64(e&^freeBit)<<3 | uint64(e&freeBit)
	}
	return 0
}

// setClass records c, a class or 0, as the block keyed k's.
func (h *heap) setClass(k, c uint64) {
	if h.classes == nil {
		if h.classes = classTables.Get(); h.classes == nil {
			h.classes = new(classTable)
		}
	}
	t, i := h.classes, int((k-h.homeLo)/heapPage)
	if n := len(t.pages); i >= n {
		t.pages = slices.Grow(t.pages[:cap(t.pages)], max(0, i+1-cap(t.pages)))[:i+1]
		for _, p := range t.pages[n:] {
			if p != nil {
				*p = classPage{}
			}
		}
	}
	if t.pages[i] == nil {
		t.pages[i] = new(classPage)
		classPagesMade.Add(1)
	}
	t.pages[i][k%heapPage/heapAlign] = uint32(c>>3) | uint32(c&freeBit)
}

// release hands the class table back for the next heap.
func (h *heap) release() {
	if h.classes != nil {
		h.classes.pages = h.classes.pages[:0]
		classTables.Put(h.classes)
		h.classes = nil
	}
}

// slotOf returns the slot page p's blocks are keyed under; false when p can
// hold no block.
func (h *heap) slotOf(p uint64) (uint64, bool) {
	if s, ok := h.slots[p]; ok {
		return s, s != vacant
	}
	return p, p >= h.homeLo && p < h.homeHi
}

// keyOf returns the key of the block at addr; false when addr's page can
// hold no block.
func (h *heap) keyOf(addr uint64) (uint64, bool) {
	s, ok := h.slotOf(addr &^ (heapPage - 1))
	return s | addr&(heapPage-1), ok
}

// keyFor is keyOf for a block about to be placed at addr: a page that can
// hold none takes a fresh slot.
func (h *heap) keyFor(addr uint64) uint64 {
	if k, ok := h.keyOf(addr); ok {
		return k
	}
	p, s := addr&^(heapPage-1), h.nextSlot
	h.nextSlot += heapPage
	h.tables()
	h.slots[p], h.pages[s] = s, p
	return s | addr&(heapPage-1)
}

// tables allocates the slot↔page tables at the first page away from home.
func (h *heap) tables() {
	if h.slots == nil {
		h.slots, h.pages = make(map[uint64]uint64), make(map[uint64]uint64)
	}
}

// addrOf returns where the block keyed k is now.
func (h *heap) addrOf(k uint64) uint64 {
	s := k &^ (heapPage - 1)
	if p, ok := h.pages[s]; ok {
		return p | k&(heapPage-1)
	}
	return k
}

// alloc returns the address of a block of at least n bytes, or 0 when the
// heap is exhausted.
func (h *heap) alloc(n uint64) uint64 {
	cls := sizeClass(n)
	if cls < n {
		return 0 // n within heapAlign of 2^64: no class holds it
	}
	if lst := h.freeLists[cls]; len(lst) > 0 {
		k := lst[len(lst)-1]
		h.freeLists[cls] = lst[:len(lst)-1]
		h.setClass(k, cls)
		return h.addrOf(k)
	}
	if h.brk+cls > h.end || h.brk+cls < cls {
		return 0
	}
	addr := h.brk
	h.brk += cls
	h.setClass(h.keyFor(addr), cls)
	return addr
}

// free returns a block to its size-class list.
func (h *heap) free(addr uint64) error {
	k, ok := h.keyOf(addr)
	cls := h.class(k)
	if !ok || cls == 0 || cls&freeBit != 0 {
		return fmt.Errorf("vm: free of unallocated address %#x", addr)
	}
	h.setClass(k, cls|freeBit)
	h.freeLists[cls] = append(h.freeLists[cls], k)
	return nil
}

// donate registers a raw address range as a reusable block of class cls —
// used when the allocation-granularity move engine vacates a heap block.
func (h *heap) donate(addr, cls uint64) {
	k := h.keyFor(addr)
	h.setClass(k, cls|freeBit)
	h.freeLists[cls] = append(h.freeLists[cls], k)
}

// rebase moves all heap metadata within the moved range [src, src+length)
// to its new location at dst. The two ranges do not overlap: the kernel
// grants a move fresh frames, and MoveAllocationTo refuses a destination
// that overlaps its source. A whole page that lands on a page holding no
// slot takes its slot along, one entry. Every other part of the range —
// MoveAllocationTo's unaligned range, a page moved by less than a page — is
// re-keyed block by block, asking for each heapAlign-spaced address. The
// cost is the pages moved plus the partly moved bytes: no walk of the
// heap's blocks or free lists.
func (h *heap) rebase(src, dst, length uint64) {
	end := src + length
	in := func(a uint64) bool { return a >= src && a < end }
	// The region boundaries only shift when the whole heap area moved;
	// handle the common case of interior page moves by leaving base/end
	// alone unless they fall inside the range.
	if in(h.base) {
		h.base = h.base - src + dst
	}
	if in(h.end) {
		h.end = h.end - src + dst
	}
	// The bump pointer must NOT follow the moved data: the vacated range
	// is no longer mapped, and the destination range is exactly sized for
	// the data it received. Skip the hole and keep bumping above it.
	if in(h.brk) {
		h.brk = end
	}
	pagewise := (dst-src)%heapPage == 0
	for a := alignTo(src, heapAlign); a < end; {
		if pagewise && a%heapPage == 0 && a+heapPage <= end && h.repoint(a, a-src+dst) {
			a += heapPage
			continue
		}
		h.rekey(a, a-src+dst)
		a += heapAlign
	}
}

// repoint moves page p's slot to page q, unless q already holds one.
func (h *heap) repoint(p, q uint64) bool {
	s, ok := h.slotOf(p)
	if !ok {
		return true // p holds no block
	}
	if _, taken := h.slotOf(q); taken {
		return false
	}
	h.tables()
	if p >= h.homeLo && p < h.homeHi {
		h.slots[p] = vacant
	} else {
		delete(h.slots, p)
	}
	if q == s {
		delete(h.slots, q)
		delete(h.pages, s)
	} else {
		h.slots[q], h.pages[s] = s, q
	}
	return true
}

// rekey moves the block at a, if one starts there, to b. A free block keeps
// its place in its free list, found by a search of that list: the move
// engine never moves a free block part of a page at a time.
func (h *heap) rekey(a, b uint64) {
	k, ok := h.keyOf(a)
	cls := h.class(k)
	if !ok || cls == 0 {
		return
	}
	nk := h.keyFor(b)
	h.setClass(k, 0)
	h.setClass(nk, cls)
	if lst := h.freeLists[cls&^freeBit]; cls&freeBit != 0 {
		lst[slices.Index(lst, k)] = nk
	}
}
