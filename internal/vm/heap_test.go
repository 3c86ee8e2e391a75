package vm

import (
	"reflect"
	"testing"
)

// rebaseWalk is heap.rebase as it was before it learned to probe: every
// address the heap knows is tested against the range, the live blocks by a
// walk of all of sizeOf. TestHeapRebaseProbeMatchesWalk holds rebase to it.
func (h *heap) rebaseWalk(src, dst, length uint64) {
	reb := func(a uint64) uint64 {
		if a >= src && a < src+length {
			return a - src + dst
		}
		return a
	}
	h.base = reb(h.base)
	h.end = reb(h.end)
	if h.brk >= src && h.brk < src+length {
		h.brk = src + length
	}
	for cls, lst := range h.freeLists {
		for i, a := range lst {
			lst[i] = reb(a)
		}
		h.freeLists[cls] = lst
	}
	moved := make(map[uint64]uint64)
	for a := range h.sizeOf {
		if na := reb(a); na != a {
			moved[a] = na
		}
	}
	for a, na := range moved {
		h.sizeOf[na] = h.sizeOf[a]
		delete(h.sizeOf, a)
	}
}

func (h *heap) clone() heap {
	c := heap{base: h.base, end: h.end, brk: h.brk,
		freeLists: make(map[uint64][]uint64), sizeOf: make(map[uint64]uint64)}
	for cls, lst := range h.freeLists {
		c.freeLists[cls] = append([]uint64(nil), lst...)
	}
	for a, sz := range h.sizeOf {
		c.sizeOf[a] = sz
	}
	return c
}

func TestHeapRebaseProbeMatchesWalk(t *testing.T) {
	const base, size, page = 0x100000, 0x10000, 0x1000
	build := func(blocks int) heap {
		h := newHeap(base, size)
		var addrs []uint64
		for i := 0; i < blocks; i++ {
			addrs = append(addrs, h.alloc(uint64(8+i%5*24)))
		}
		for i := 0; i < len(addrs); i += 3 { // leave holes, fill free lists
			if err := h.free(addrs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	dense := build(600) // more live blocks than a page has slots: rebase probes
	sparse := build(12) // fewer: it walks
	for _, tc := range []struct {
		name             string
		probes, changes  bool // the path rebase must take; whether anything moves at all
		h                *heap
		src, dst, length uint64
	}{
		{"interior page", true, true, &dense, base + 2*page, 0x900000, page},
		{"page holding brk", true, true, &dense, dense.brk &^ (page - 1), 0x900000, page},
		{"first page and base", true, true, &dense, base, 0x900000, page},
		{"one block, unaligned to pages", true, true, &dense, base + 0x1230, 0x900040, 0x50},
		{"no block in range", true, false, &dense, base + size - page, 0x900000, page},
		{"interior page, few blocks", false, true, &sparse, base, 0x900000, page},
		{"page holding brk, few blocks", false, true, &sparse, sparse.brk &^ (page - 1), 0x900000, page},
		{"whole heap", false, true, &dense, base, 0x900000, size},
		{"range past the end holds end", false, true, &sparse, base + size, 0x900000, page},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if probes := tc.length/heapAlign < uint64(len(tc.h.sizeOf)); probes != tc.probes {
				t.Fatalf("fixture drifted: probe path taken = %v, want %v", probes, tc.probes)
			}
			got, want := tc.h.clone(), tc.h.clone()
			got.rebase(tc.src, tc.dst, tc.length)
			want.rebaseWalk(tc.src, tc.dst, tc.length)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rebase(%#x, %#x, %#x):\n got %+v\nwant %+v", tc.src, tc.dst, tc.length, got, want)
			}
			if changed := !reflect.DeepEqual(got, tc.h.clone()); changed != tc.changes {
				t.Errorf("rebase changed the heap = %v, want %v", changed, tc.changes)
			}
		})
	}
}
