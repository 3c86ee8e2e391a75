// Package kernel simulates the OS side of the CARAT co-design: a flat
// physical memory, a physical page allocator, per-process region sets, and
// the change-request machinery (protection changes and page moves) that the
// CARAT runtime negotiates with (paper §2.2, §4.3). It also implements the
// Linux-like demand-paging/copy-on-write accounting that Table 2 measures
// through MMU notifiers on real hardware.
package kernel

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// PageSize is the physical page size, matching the paper's 4 KB pages.
const PageSize = 4096

// PhysMem is the machine's physical memory: a flat byte array addressed by
// physical address. Address 0 is kept unmapped so that null dereferences
// always fault.
//
// dirty is the page-dirty map, one byte (0 or 1) per page, and the
// invariant it keeps is one-sided: dirty[p] == 0 implies every byte of page
// p is zero. Every writer (Store64, StoreN, WriteAt, Move's destination)
// marks the pages it touches, a fresh memory is all clean, and only zero
// marks a page clean again, so Zero can skip the pages nobody wrote. The
// invariant holds because this file is the only one that indexes data or
// dirty; keep it that way. A byte per page rather than a bit: processes
// sharing one PhysMem store to different pages from different goroutines,
// and distinct bytes are distinct memory locations, so the plain stores
// below do not race. A page changes hands through the allocator's mutex
// (Free, then Alloc), which orders the old owner's marks before the new
// owner's grant-time read of them exactly as it orders the data bytes.
type PhysMem struct {
	data  []byte
	dirty []uint8
}

// NewPhysMem returns a physical memory of the given size in bytes, rounded
// up to a whole number of pages.
func NewPhysMem(size uint64) *PhysMem {
	pages := (size + PageSize - 1) / PageSize
	return &PhysMem{data: make([]byte, pages*PageSize), dirty: make([]uint8, pages)}
}

// Size returns the memory size in bytes.
func (m *PhysMem) Size() uint64 { return uint64(len(m.data)) }

// Pages returns the number of physical pages.
func (m *PhysMem) Pages() uint64 { return m.Size() / PageSize }

// InBounds reports whether [addr, addr+n) lies inside physical memory.
func (m *PhysMem) InBounds(addr, n uint64) bool {
	return addr > 0 && addr+n >= addr && addr+n <= m.Size()
}

// ReadAt copies len(b) bytes at addr into b.
func (m *PhysMem) ReadAt(addr uint64, b []byte) error {
	n := uint64(len(b))
	if !m.InBounds(addr, n) {
		return fmt.Errorf("kernel: physical read [%#x,%#x) out of bounds", addr, addr+n)
	}
	copy(b, m.data[addr:addr+n])
	return nil
}

// WriteAt copies b into memory at addr.
func (m *PhysMem) WriteAt(addr uint64, b []byte) error {
	if !m.InBounds(addr, uint64(len(b))) {
		return fmt.Errorf("kernel: physical write [%#x,%#x) out of bounds", addr, addr+uint64(len(b)))
	}
	copy(m.data[addr:], b)
	m.markDirty(addr, uint64(len(b)))
	return nil
}

// Load64 reads a little-endian 64-bit value. It panics on out-of-bounds
// access; callers (the VM) must have guarded or bounds-checked already.
func (m *PhysMem) Load64(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(m.data[addr : addr+8 : addr+8])
}

// Store64 writes a little-endian 64-bit value. It marks the page of its
// first and of its last byte: a store at page offset 4093 dirties two
// pages. The compiled engine's fused store path calls it per guest store,
// so it must stay inlinable.
func (m *PhysMem) Store64(addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(m.data[addr:addr+8:addr+8], v)
	m.dirty[addr/PageSize] = 1
	m.dirty[(addr+7)/PageSize] = 1
}

// LoadN reads an n-byte little-endian value (n in 1,2,4,8).
func (m *PhysMem) LoadN(addr uint64, n int) uint64 {
	switch n {
	case 1:
		return uint64(m.data[addr])
	case 2:
		return uint64(binary.LittleEndian.Uint16(m.data[addr : addr+2 : addr+2]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[addr : addr+4 : addr+4]))
	case 8:
		return m.Load64(addr)
	}
	panic(fmt.Sprintf("kernel: LoadN with width %d", n))
}

// StoreN writes an n-byte little-endian value (n in 1,2,4,8).
func (m *PhysMem) StoreN(addr uint64, v uint64, n int) {
	switch n {
	case 1:
		m.data[addr] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(m.data[addr:addr+2:addr+2], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:addr+4:addr+4], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:addr+8:addr+8], v)
	default:
		panic(fmt.Sprintf("kernel: StoreN with width %d", n))
	}
	m.dirty[addr/PageSize] = 1
	m.dirty[(addr+uint64(n)-1)/PageSize] = 1
}

// Move copies n bytes from src to dst (ranges may not overlap) and zeroes
// the source, modeling a page migration's data movement.
func (m *PhysMem) Move(dst, src, n uint64) error {
	if !m.InBounds(src, n) || !m.InBounds(dst, n) {
		return fmt.Errorf("kernel: move [%#x,%#x)->[%#x,%#x) out of bounds", src, src+n, dst, dst+n)
	}
	if src < dst+n && dst < src+n {
		return fmt.Errorf("kernel: move ranges overlap")
	}
	copy(m.data[dst:dst+n], m.data[src:src+n])
	m.markDirty(dst, n)
	m.zero(src, n)
	return nil
}

// Checksum returns an FNV-1a hash over the entire physical memory image.
// The soak harness compares it across replays of the same seed: the final
// memory bytes must be identical, not merely invariant-clean.
func (m *PhysMem) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range m.data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Zero clears [addr, addr+n). It costs what the dirty pages in the range
// cost: pages nobody wrote since they were last cleared are skipped.
func (m *PhysMem) Zero(addr, n uint64) error {
	if !m.InBounds(addr, n) {
		return fmt.Errorf("kernel: zero [%#x,%#x) out of bounds", addr, addr+n)
	}
	m.zero(addr, n)
	return nil
}

// DirtyPages returns how many pages overlapping [addr, addr+n) are marked
// dirty: the pages a Zero of that range would have to clear.
func (m *PhysMem) DirtyPages(addr, n uint64) uint64 {
	if !m.InBounds(addr, n) {
		return 0
	}
	d := m.marks(addr, n)
	return uint64(len(d) - bytes.Count(d, []byte{0}))
}

// marks returns the map entries of the pages overlapping [addr, addr+n),
// which the caller has bounds-checked.
func (m *PhysMem) marks(addr, n uint64) []uint8 {
	if n == 0 {
		return nil
	}
	return m.dirty[addr/PageSize : (addr+n-1)/PageSize+1]
}

// markDirty marks every page overlapping [addr, addr+n), which the caller
// has bounds-checked, as possibly nonzero.
func (m *PhysMem) markDirty(addr, n uint64) {
	d := m.marks(addr, n)
	for i := range d {
		d[i] = 1
	}
}

// zero is the one zeroing routine, behind Zero and Move's source scrub. It
// clears [addr, addr+n), which the caller has bounds-checked, without
// touching clean pages: each maximal run of dirty pages is one clear. A
// page goes back to clean only when the cleared bytes cover all of it, so
// a sub-page zero (calloc, swap-out, an allocation-granularity move) clears
// its bytes and leaves the page dirty.
func (m *PhysMem) zero(addr, n uint64) {
	end, first := addr+n, addr/PageSize
	d := m.marks(addr, n)
	for i := 0; i < len(d); {
		skip := bytes.IndexByte(d[i:], 1)
		if skip < 0 {
			return
		}
		i += skip
		run := bytes.IndexByte(d[i:], 0)
		if run < 0 {
			run = len(d) - i
		}
		lo, hi := max(addr, (first+uint64(i))*PageSize), min(end, (first+uint64(i+run))*PageSize)
		clear(m.data[lo:hi])
		if from, to := (lo+PageSize-1)/PageSize, hi/PageSize; from < to {
			clear(m.dirty[from:to])
		}
		i += run
	}
}
