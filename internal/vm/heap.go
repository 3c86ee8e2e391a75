package vm

import "fmt"

// heap is the process's dynamic memory allocator: a bump allocator with
// size-class free lists over the kernel-granted heap region. Its metadata
// is address-based and therefore move-aware: rebase is called by the VM's
// move listener whenever the kernel relocates pages.
type heap struct {
	base, end, brk uint64
	// freeLists maps a size class to reusable block addresses.
	freeLists map[uint64][]uint64
	// sizeOf remembers each live block's allocation size for free().
	sizeOf map[uint64]uint64
}

const heapAlign = 16

func newHeap(base, size uint64) heap {
	return heap{
		base: base, end: base + size, brk: base,
		freeLists: make(map[uint64][]uint64),
		sizeOf:    make(map[uint64]uint64),
	}
}

func sizeClass(n uint64) uint64 {
	if n < heapAlign {
		n = heapAlign
	}
	return (n + heapAlign - 1) &^ (heapAlign - 1)
}

// alloc returns the address of a block of at least n bytes, or 0 when the
// heap is exhausted.
func (h *heap) alloc(n uint64) uint64 {
	cls := sizeClass(n)
	if lst := h.freeLists[cls]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		h.freeLists[cls] = lst[:len(lst)-1]
		h.sizeOf[addr] = cls
		return addr
	}
	if h.brk+cls > h.end {
		return 0
	}
	addr := h.brk
	h.brk += cls
	h.sizeOf[addr] = cls
	return addr
}

// free returns a block to its size-class list.
func (h *heap) free(addr uint64) error {
	cls, ok := h.sizeOf[addr]
	if !ok {
		return fmt.Errorf("vm: free of unallocated address %#x", addr)
	}
	delete(h.sizeOf, addr)
	h.freeLists[cls] = append(h.freeLists[cls], addr)
	return nil
}

// donate registers a raw address range as a reusable block of class cls —
// used when the allocation-granularity move engine vacates a heap block.
func (h *heap) donate(addr, cls uint64) {
	h.freeLists[cls] = append(h.freeLists[cls], addr)
}

// live reports whether addr is the base of a live block.
func (h *heap) live(addr uint64) bool {
	_, ok := h.sizeOf[addr]
	return ok
}

// rebase rewrites all heap metadata addresses within the moved range
// [src, src+length) to their new location at dst. The two ranges do not
// overlap: the kernel grants a move fresh frames, and MoveAllocationTo
// refuses a destination that overlaps its source.
func (h *heap) rebase(src, dst, length uint64) {
	in := func(a uint64) bool { return a >= src && a < src+length }
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
		h.brk = src + length
	}
	for _, lst := range h.freeLists {
		for i, a := range lst {
			if in(a) {
				lst[i] = a - src + dst
			}
		}
	}
	// Live blocks sit on heapAlign-spaced addresses: ask for each slot of
	// the range when that is fewer questions than the heap has live blocks
	// (a page move in a heap of thousands), walk the blocks otherwise.
	move := func(a, sz uint64) {
		delete(h.sizeOf, a)
		h.sizeOf[a-src+dst] = sz
	}
	if length/heapAlign < uint64(len(h.sizeOf)) {
		for a := alignTo(src, heapAlign); in(a); a += heapAlign {
			if sz, ok := h.sizeOf[a]; ok {
				move(a, sz)
			}
		}
		return
	}
	for a, sz := range h.sizeOf {
		if in(a) {
			move(a, sz)
		}
	}
}
