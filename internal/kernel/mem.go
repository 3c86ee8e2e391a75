// Package kernel simulates the OS side of the CARAT co-design: a flat
// physical memory, a physical page allocator, per-process region sets, and
// the change-request machinery (protection changes and page moves) that the
// CARAT runtime negotiates with (paper §2.2, §4.3). It also implements the
// Linux-like demand-paging/copy-on-write accounting that Table 2 measures
// through MMU notifiers on real hardware.
package kernel

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the physical page size, matching the paper's 4 KB pages.
const PageSize = 4096

// PhysMem is the machine's physical memory: a flat byte array addressed by
// physical address. Address 0 is kept unmapped so that null dereferences
// always fault.
type PhysMem struct {
	data []byte
}

// NewPhysMem returns a physical memory of the given size in bytes, rounded
// up to a whole number of pages.
func NewPhysMem(size uint64) *PhysMem {
	pages := (size + PageSize - 1) / PageSize
	return &PhysMem{data: make([]byte, pages*PageSize)}
}

// Size returns the memory size in bytes.
func (m *PhysMem) Size() uint64 { return uint64(len(m.data)) }

// Pages returns the number of physical pages.
func (m *PhysMem) Pages() uint64 { return m.Size() / PageSize }

// InBounds reports whether [addr, addr+n) lies inside physical memory.
func (m *PhysMem) InBounds(addr, n uint64) bool {
	return addr > 0 && addr+n >= addr && addr+n <= m.Size()
}

// ReadAt copies n bytes at addr into a fresh slice.
func (m *PhysMem) ReadAt(addr, n uint64) ([]byte, error) {
	if !m.InBounds(addr, n) {
		return nil, fmt.Errorf("kernel: physical read [%#x,%#x) out of bounds", addr, addr+n)
	}
	out := make([]byte, n)
	copy(out, m.data[addr:addr+n])
	return out, nil
}

// WriteAt copies b into memory at addr.
func (m *PhysMem) WriteAt(addr uint64, b []byte) error {
	if !m.InBounds(addr, uint64(len(b))) {
		return fmt.Errorf("kernel: physical write [%#x,%#x) out of bounds", addr, addr+uint64(len(b)))
	}
	copy(m.data[addr:], b)
	return nil
}

// Load64 reads a little-endian 64-bit value. It panics on out-of-bounds
// access; callers (the VM) must have guarded or bounds-checked already.
func (m *PhysMem) Load64(addr uint64) uint64 {
	return binary.LittleEndian.Uint64(m.data[addr : addr+8 : addr+8])
}

// Store64 writes a little-endian 64-bit value.
func (m *PhysMem) Store64(addr uint64, v uint64) {
	binary.LittleEndian.PutUint64(m.data[addr:addr+8:addr+8], v)
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
		m.Store64(addr, v)
	default:
		panic(fmt.Sprintf("kernel: StoreN with width %d", n))
	}
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
	clear(m.data[src : src+n])
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

// ChecksumRange returns the FNV-1a hash of [addr, addr+n) only. The group
// runner digests each process's arena with it: concurrent processes leave
// the whole-memory image interleaving-dependent (freed frames keep their
// contents), but an arena-confined process's own range is deterministic.
func (m *PhysMem) ChecksumRange(addr, n uint64) (uint64, error) {
	if !m.InBounds(addr, n) {
		return 0, fmt.Errorf("kernel: checksum [%#x,%#x) out of bounds", addr, addr+n)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range m.data[addr : addr+n] {
		h ^= uint64(b)
		h *= prime64
	}
	return h, nil
}

// Zero clears [addr, addr+n).
func (m *PhysMem) Zero(addr, n uint64) error {
	if !m.InBounds(addr, n) {
		return fmt.Errorf("kernel: zero [%#x,%#x) out of bounds", addr, addr+n)
	}
	clear(m.data[addr : addr+n])
	return nil
}
