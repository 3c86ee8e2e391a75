package kernel

import "fmt"

// Per-process page arenas: the kernel-side half of the multi-core execution
// model.
//
// When processes from one machine run truly concurrently, a process's
// physical layout must not depend on how its grants interleave with other
// processes' grants — guard walk order, translation-cache indexing, and the
// final memory image all key off absolute addresses. An Arena is a
// contiguous page range carved out of the machine once (at a deterministic
// point, before the processes start) with a private allocator inside it:
// every grant and every move destination of the owning process lands in its
// arena, so its addresses are a pure function of its own allocation history.

// Arena is a contiguous page range reserved for one process, with a
// private allocator inside it. Page 0 of the arena is kept reserved (the
// inner allocator's null-page convention), so an arena of n pages serves
// n-1. Create with Kernel.NewArena, install with Process.SetArena before
// the process's first grant, and return it with Kernel.ReleaseArena after
// the process has released every region.
type Arena struct {
	base  uint64 // physical address of the first arena page
	pages uint64
	alloc *PageAllocator
}

// NewArena carves a contiguous range of pages out of the machine's
// allocator and wraps it in a private arena allocator.
func (k *Kernel) NewArena(pages uint64) (*Arena, error) {
	if pages < 2 {
		return nil, fmt.Errorf("kernel: arena needs at least 2 pages")
	}
	base, err := k.Alloc.Alloc(pages)
	if err != nil {
		return nil, fmt.Errorf("kernel: arena: %w", err)
	}
	return &Arena{base: base, pages: pages, alloc: NewPageAllocator(pages)}, nil
}

// ReleaseArena returns an arena's pages to the machine allocator. Every
// page inside it must have been freed (regions released) first.
func (k *Kernel) ReleaseArena(a *Arena) error {
	if used := a.UsedPages(); used != 0 {
		return fmt.Errorf("kernel: arena release with %d pages still allocated", used)
	}
	return k.Alloc.Free(a.base, a.pages)
}

// Base returns the arena's first physical address.
func (a *Arena) Base() uint64 { return a.base }

// Bytes returns the arena size in bytes.
func (a *Arena) Bytes() uint64 { return a.pages * PageSize }

// Contains reports whether addr lies inside the arena.
func (a *Arena) Contains(addr uint64) bool {
	return addr >= a.base && addr < a.base+a.Bytes()
}

// UsedPages returns the number of pages currently allocated inside the
// arena (excluding the permanently reserved page 0).
func (a *Arena) UsedPages() uint64 {
	return a.alloc.TotalPages() - 1 - a.alloc.FreePages()
}

// allocPages grabs n contiguous pages inside the arena, returning a
// machine physical address.
func (a *Arena) allocPages(n uint64) (uint64, error) {
	off, err := a.alloc.Alloc(n)
	if err != nil {
		return 0, err
	}
	return a.base + off, nil
}

// freePages releases n pages at machine physical address addr back to the
// arena.
func (a *Arena) freePages(addr, n uint64) error {
	if !a.Contains(addr) {
		return fmt.Errorf("kernel: arena free of foreign address %#x", addr)
	}
	return a.alloc.Free(addr-a.base, n)
}
