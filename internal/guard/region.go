// Package guard implements CARAT's protection machinery: the kernel-supplied
// region set ("landing zone" of §4.2) and the guard mechanisms that validate
// a prospective physical address range against it — linear scan, binary
// search, a statically laid-out if-tree, and a modeled Intel MPX bounds
// check. Each mechanism reports a cycle cost per check from a simple
// microarchitectural model (comparisons + branch prediction), which is what
// Figure 4 of the paper measures on hardware.
package guard

import (
	"fmt"
	"slices"
	"sort"
)

// Perm is an access-permission bitmask, mirroring the x64 possibilities the
// paper lists in §3 ({none, read, read+write} x {none, exec}).
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// PermRW is the common read+write permission.
const PermRW = PermRead | PermWrite

// String renders the permission like "rw-".
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Region is a contiguous run of physical addresses with one permission.
type Region struct {
	Base uint64
	Len  uint64
	Perm Perm
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Len }

// Contains reports whether [addr, addr+size) lies inside the region.
func (r Region) Contains(addr, size uint64) bool {
	return addr >= r.Base && addr+size <= r.End()
}

// String renders the region for diagnostics.
func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x) %s", r.Base, r.End(), r.Perm)
}

// RegionSet is the ordered array of permitted regions the kernel writes
// into the process (§4.2 "Protection"). Regions are kept sorted by base
// address and non-overlapping; adjacent regions with equal permissions are
// coalesced, since fewer regions means cheaper guards (§2.3).
type RegionSet struct {
	regions []Region
	// Epoch increments on every mutation; guard mechanisms that build
	// per-set state (the if-tree) use it to invalidate caches.
	Epoch uint64
}

// NewRegionSet returns an empty region set.
func NewRegionSet() *RegionSet { return &RegionSet{} }

// Len returns the number of regions.
func (s *RegionSet) Len() int { return len(s.regions) }

// Regions returns the regions in address order. The caller must not
// mutate the returned slice, and Add and Remove rewrite it in place: copy it
// to keep it across a change of the set.
func (s *RegionSet) Regions() []Region { return s.regions }

// Clone returns an independent copy of the set.
func (s *RegionSet) Clone() *RegionSet {
	c := &RegionSet{regions: make([]Region, len(s.regions)), Epoch: s.Epoch}
	copy(c.regions, s.regions)
	return c
}

// Add inserts a region. It returns an error if the region overlaps an
// existing one with different permissions; equal-permission overlap is
// merged, and so are equal-permission neighbours the region touches. The set
// is sorted and coalesced before the call, so only the regions r reaches can
// change: they are found by binary search and replaced in place.
func (s *RegionSet) Add(r Region) error {
	if r.Len == 0 {
		return fmt.Errorf("guard: empty region")
	}
	// regions[i:j] are the ones r overlaps or touches.
	i := sort.Search(len(s.regions), func(k int) bool { return s.regions[k].End() >= r.Base })
	j := i
	for ; j < len(s.regions) && s.regions[j].Base <= r.End(); j++ {
		if x := s.regions[j]; r.Base < x.End() && x.Base < r.End() && x.Perm != r.Perm {
			return fmt.Errorf("guard: region %v overlaps %v with different permissions", r, x)
		}
	}
	// A region of another permission in that run only touches r — one can
	// end where r starts, one can start where r ends — and stays as it is.
	if i < j && s.regions[i].End() == r.Base && s.regions[i].Perm != r.Perm {
		i++
	}
	if i < j && s.regions[j-1].Base == r.End() && s.regions[j-1].Perm != r.Perm {
		j--
	}
	if i < j {
		end := max(r.End(), s.regions[j-1].End())
		r.Base = min(r.Base, s.regions[i].Base)
		r.Len = end - r.Base
	}
	s.regions = slices.Replace(s.regions, i, j, r)
	s.Epoch++
	return nil
}

// Remove deletes the address range [base, base+length) from the set,
// splitting regions as needed: the regions the range overlaps are found by
// binary search and replaced, in place, by what is left of the first and of
// the last of them.
func (s *RegionSet) Remove(base, length uint64) {
	s.Epoch++
	if length == 0 {
		return // an empty range overlaps nothing, not even the region around it
	}
	end := base + length
	// regions[i:j] are the ones the range overlaps.
	i := sort.Search(len(s.regions), func(k int) bool { return s.regions[k].End() > base })
	j := i
	for j < len(s.regions) && s.regions[j].Base < end {
		j++
	}
	if i == j {
		return
	}
	var left [2]Region
	n := 0
	if x := s.regions[i]; x.Base < base {
		left[n] = Region{Base: x.Base, Len: base - x.Base, Perm: x.Perm}
		n++
	}
	if x := s.regions[j-1]; x.End() > end {
		left[n] = Region{Base: end, Len: x.End() - end, Perm: x.Perm}
		n++
	}
	s.regions = slices.Replace(s.regions, i, j, left[:n]...)
}

// SetPerm changes the permission of the range [base, base+length),
// which must be fully covered by existing regions.
func (s *RegionSet) SetPerm(base, length uint64, p Perm) error {
	if !s.covered(base, length) {
		return fmt.Errorf("guard: SetPerm range [%#x,%#x) not covered", base, base+length)
	}
	s.Remove(base, length)
	return s.Add(Region{Base: base, Len: length, Perm: p})
}

func (s *RegionSet) covered(base, length uint64) bool {
	addr, end := base, base+length
	for _, x := range s.regions {
		if addr >= end {
			break
		}
		if x.Base <= addr && addr < x.End() {
			addr = x.End()
		}
	}
	return addr >= end
}

// Find returns the region containing addr, if any, using binary search.
func (s *RegionSet) Find(addr uint64) (Region, bool) {
	i := sort.Search(len(s.regions), func(i int) bool { return s.regions[i].End() > addr })
	if i < len(s.regions) && s.regions[i].Base <= addr {
		return s.regions[i], true
	}
	return Region{}, false
}

// Check reports whether the access [addr, addr+size) with permission p is
// permitted. An access must lie within a single region (regions with
// different permissions are never coalesced).
func (s *RegionSet) Check(addr, size uint64, p Perm) bool {
	r, ok := s.Find(addr)
	if !ok || !r.Contains(addr, size) {
		return false
	}
	return r.Perm&p == p
}

// String lists the regions.
func (s *RegionSet) String() string {
	out := ""
	for i, r := range s.regions {
		if i > 0 {
			out += " "
		}
		out += r.String()
	}
	return out
}
