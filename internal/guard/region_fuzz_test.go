package guard

import (
	"fmt"
	"sort"
	"testing"
)

// oracleSet is the RegionSet this package had before Add and Remove became
// binary search + splice: an overlap scan of the whole set, append,
// sort.Slice and a coalescing pass over everything for Add; a rebuild of the
// whole slice for Remove. It is the model FuzzRegionSet holds the in-place
// code to.
type oracleSet struct {
	regions []Region
	epoch   uint64
}

func (s *oracleSet) add(r Region) error {
	if r.Len == 0 {
		return fmt.Errorf("guard: empty region")
	}
	for _, x := range s.regions {
		if r.Base < x.End() && x.Base < r.End() && x.Perm != r.Perm {
			return fmt.Errorf("guard: region %v overlaps %v with different permissions", r, x)
		}
	}
	s.regions = append(s.regions, r)
	sort.Slice(s.regions, func(i, j int) bool { return s.regions[i].Base < s.regions[j].Base })
	s.coalesce()
	s.epoch++
	return nil
}

func (s *oracleSet) remove(base, length uint64) {
	end := base + length
	var out []Region
	for _, x := range s.regions {
		if x.End() <= base || x.Base >= end {
			out = append(out, x)
			continue
		}
		if x.Base < base {
			out = append(out, Region{Base: x.Base, Len: base - x.Base, Perm: x.Perm})
		}
		if x.End() > end {
			out = append(out, Region{Base: end, Len: x.End() - end, Perm: x.Perm})
		}
	}
	s.regions = out
	s.epoch++
}

func (s *oracleSet) setPerm(base, length uint64, p Perm) error {
	addr, end := base, base+length
	for _, x := range s.regions {
		if addr >= end {
			break
		}
		if x.Base <= addr && addr < x.End() {
			addr = x.End()
		}
	}
	if addr < end {
		return fmt.Errorf("guard: SetPerm range [%#x,%#x) not covered", base, base+length)
	}
	s.remove(base, length)
	return s.add(Region{Base: base, Len: length, Perm: p})
}

func (s *oracleSet) coalesce() {
	if len(s.regions) < 2 {
		return
	}
	out := s.regions[:1]
	for _, x := range s.regions[1:] {
		last := &out[len(out)-1]
		if x.Base <= last.End() && x.Perm == last.Perm {
			if x.End() > last.End() {
				last.Len = x.End() - last.Base
			}
			continue
		}
		out = append(out, x)
	}
	s.regions = out
}

// regionOps packs (kind, base, length, perm) quadruples into a fuzz input.
// Bases and lengths count 0x800-byte units, so splits land inside pages too.
func regionOps(ops ...[4]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

const (
	opAdd = iota
	opRemove
	opSetPerm
)

// FuzzRegionSet drives the in-place RegionSet and the sort-and-coalesce
// oracle with the same Add/Remove/SetPerm sequence and requires the same
// regions, the same errors and the same Epoch after every step, plus the
// invariant Add's binary search relies on: sorted, disjoint, and no two
// touching regions of one permission. A zero-length Remove is skipped: the
// old loop split the region around base in two, by accident.
func FuzzRegionSet(f *testing.F) {
	ro, rw := byte(PermRead), byte(PermRW)
	// A region landing between touching neighbours of another permission, on
	// either side and on both: the run Add finds then holds regions it must
	// leave alone.
	f.Add(regionOps([4]byte{opAdd, 4, 2, ro}, [4]byte{opAdd, 2, 2, rw}))
	f.Add(regionOps([4]byte{opAdd, 2, 2, ro}, [4]byte{opAdd, 4, 2, rw}))
	f.Add(regionOps([4]byte{opAdd, 2, 2, ro}, [4]byte{opAdd, 6, 2, ro}, [4]byte{opAdd, 4, 2, rw}))
	f.Add(regionOps([4]byte{opAdd, 2, 2, ro}, [4]byte{opAdd, 6, 2, rw}, [4]byte{opAdd, 4, 2, rw}))
	// Same permission: bridge two neighbours, swallow several, overlap one.
	f.Add(regionOps([4]byte{opAdd, 2, 2, rw}, [4]byte{opAdd, 6, 2, rw}, [4]byte{opAdd, 4, 2, rw}))
	f.Add(regionOps([4]byte{opAdd, 2, 1, rw}, [4]byte{opAdd, 4, 1, rw}, [4]byte{opAdd, 6, 1, rw}, [4]byte{opAdd, 1, 9, rw}))
	f.Add(regionOps([4]byte{opAdd, 2, 4, rw}, [4]byte{opAdd, 3, 1, ro}))
	// Remove: a hole inside one region, across several, off either end.
	f.Add(regionOps([4]byte{opAdd, 2, 6, rw}, [4]byte{opRemove, 4, 2, 0}))
	f.Add(regionOps([4]byte{opAdd, 2, 2, rw}, [4]byte{opAdd, 4, 2, ro}, [4]byte{opAdd, 6, 2, rw}, [4]byte{opRemove, 3, 4, 0}))
	f.Add(regionOps([4]byte{opAdd, 2, 4, rw}, [4]byte{opRemove, 0, 3, 0}, [4]byte{opRemove, 5, 9, 0}))
	f.Add(regionOps([4]byte{opAdd, 2, 6, rw}, [4]byte{opSetPerm, 4, 2, ro}, [4]byte{opSetPerm, 4, 2, rw}, [4]byte{opSetPerm, 1, 2, ro}))

	f.Fuzz(func(t *testing.T, in []byte) {
		got, want := NewRegionSet(), &oracleSet{}
		for step := 0; len(in) >= 4; step, in = step+1, in[4:] {
			const unit = 0x800
			base, length := uint64(in[1]%64)*unit, uint64(in[2]%12)*unit
			perm := []Perm{PermRead, PermRW, PermRead | PermExec}[in[3]%3]
			var gotErr, wantErr error
			switch in[0] % 3 {
			case opAdd:
				gotErr, wantErr = got.Add(Region{base, length, perm}), want.add(Region{base, length, perm})
			case opRemove:
				if length == 0 {
					continue
				}
				got.Remove(base, length)
				want.remove(base, length)
			case opSetPerm:
				if length == 0 {
					continue
				}
				gotErr, wantErr = got.SetPerm(base, length, perm), want.setPerm(base, length, perm)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: error %v, oracle %v", step, gotErr, wantErr)
			}
			if got.Epoch != want.epoch {
				t.Fatalf("step %d: epoch %d, oracle %d", step, got.Epoch, want.epoch)
			}
			if fmt.Sprint(got.Regions()) != fmt.Sprint(want.regions) {
				t.Fatalf("step %d: regions %v, oracle %v", step, got.Regions(), want.regions)
			}
			for i, r := range got.Regions() {
				if r.Len == 0 {
					t.Fatalf("step %d: empty region %v", step, r)
				}
				if i == 0 {
					continue
				}
				if p := got.Regions()[i-1]; p.End() > r.Base || (p.End() == r.Base && p.Perm == r.Perm) {
					t.Fatalf("step %d: %v then %v: not disjoint and coalesced", step, p, r)
				}
			}
		}
	})
}

// TestRegionSetChurnDoesNotAllocate pins what the in-place splice is for: a
// set that has reached its size adds and removes without allocating (Remove
// used to rebuild the slice from nil on every call).
func TestRegionSetChurnDoesNotAllocate(t *testing.T) {
	s := buildRegions(t, 64)
	hole := s.Regions()[20]
	allocs := testing.AllocsPerRun(100, func() {
		s.Remove(hole.Base, hole.Len)
		if err := s.Add(hole); err != nil {
			t.Fatal(err)
		}
		s.Remove(hole.Base+0x100, 0x100) // split in two, then heal
		if err := s.Add(Region{Base: hole.Base + 0x100, Len: 0x100, Perm: hole.Perm}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("churn on a 64-region set allocates %.1f times per round, want 0", allocs)
	}
}
