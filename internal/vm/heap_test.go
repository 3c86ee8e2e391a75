package vm

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"carat/internal/ir"
)

// flatHeap is the heap keyed by address, the reference the slot-keyed heap is
// held to: every block's class under its address, every free list a list of
// addresses, and rebaseWalk moving them by testing every address the heap
// knows against the range.
type flatHeap struct {
	base, end, brk uint64
	freeLists      map[uint64][]uint64
	sizeOf         map[uint64]uint64
}

func (f *flatHeap) alloc(n uint64) uint64 {
	cls := sizeClass(n)
	if lst := f.freeLists[cls]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		f.freeLists[cls] = lst[:len(lst)-1]
		f.sizeOf[addr] = cls
		return addr
	}
	if f.brk+cls > f.end {
		return 0
	}
	addr := f.brk
	f.brk += cls
	f.sizeOf[addr] = cls
	return addr
}

func (f *flatHeap) free(addr uint64) bool {
	cls, ok := f.sizeOf[addr]
	if ok {
		delete(f.sizeOf, addr)
		f.freeLists[cls] = append(f.freeLists[cls], addr)
	}
	return ok
}

func (f *flatHeap) rebaseWalk(src, dst, length uint64) {
	reb := func(a uint64) uint64 {
		if a >= src && a < src+length {
			return a - src + dst
		}
		return a
	}
	f.base = reb(f.base)
	f.end = reb(f.end)
	if f.brk >= src && f.brk < src+length {
		f.brk = src + length
	}
	for _, lst := range f.freeLists {
		for i, a := range lst {
			lst[i] = reb(a)
		}
	}
	moved := make(map[uint64]uint64) // new address -> class
	for a, cls := range f.sizeOf {
		if na := reb(a); na != a {
			moved[na] = cls
			delete(f.sizeOf, a)
		}
	}
	for na, cls := range moved {
		f.sizeOf[na] = cls
	}
}

// live reports whether addr is the base of a live block.
func (h *heap) live(addr uint64) bool {
	k, ok := h.keyOf(addr)
	cls := h.class(k)
	return ok && cls != 0 && cls&freeBit == 0
}

// flat returns what h holds, by address.
func (h *heap) flat() flatHeap {
	f := flatHeap{base: h.base, end: h.end, brk: h.brk,
		freeLists: make(map[uint64][]uint64), sizeOf: make(map[uint64]uint64)}
	for cls, lst := range h.freeLists {
		if len(lst) == 0 {
			continue
		}
		addrs := make([]uint64, len(lst))
		for i, k := range lst {
			addrs[i] = h.addrOf(k)
		}
		f.freeLists[cls] = addrs
	}
	h.eachClass(func(k, cls uint64) {
		if cls&freeBit == 0 {
			f.sizeOf[h.addrOf(k)] = cls
		}
	})
	return f
}

// eachClass calls fn with every block's key and class, freeBit included.
func (h *heap) eachClass(fn func(k, cls uint64)) {
	if h.classes == nil {
		return
	}
	for i, pg := range h.classes.pages {
		for j := 0; pg != nil && j < len(pg); j++ {
			if k := h.homeLo + uint64(i)*heapPage + uint64(j)*heapAlign; h.class(k) != 0 {
				fn(k, h.class(k))
			}
		}
	}
}

// empty reports whether [lo, lo+n) holds no block start and not brk.
func (f *flatHeap) empty(lo, n uint64) bool {
	in := func(a uint64) bool { return a >= lo && a < lo+n }
	if in(f.brk) {
		return false
	}
	for a := range f.sizeOf {
		if in(a) {
			return false
		}
	}
	for _, lst := range f.freeLists {
		if slices.ContainsFunc(lst, in) {
			return false
		}
	}
	return true
}

// expand grows [lo, lo+n) by whole pages until no block, live or free,
// straddles its ends, as a kernel page move grows to whole allocations, and
// returns the grown range.
func (f *flatHeap) expand(lo, n, page uint64) (uint64, uint64) {
	hi := lo + n
	for grew := true; grew; {
		grew = false
		f.each(func(a, cls uint64) {
			if a < hi && a+cls > lo && (a < lo || a+cls > hi) {
				lo, hi, grew = min(lo, a&^(page-1)), max(hi, alignTo(a+cls, page)), true
			}
		})
	}
	return lo, hi - lo
}

// each calls fn with every block's address and class, live or free.
func (f *flatHeap) each(fn func(a, cls uint64)) {
	for a, cls := range f.sizeOf {
		fn(a, cls)
	}
	for cls, lst := range f.freeLists {
		for _, a := range lst {
			fn(a, cls)
		}
	}
}

// diffFlat lists where two flat heaps differ.
func diffFlat(got, want flatHeap) string {
	var out string
	if got.base != want.base || got.end != want.end || got.brk != want.brk {
		out += fmt.Sprintf("\n bounds %#x %#x %#x, want %#x %#x %#x", got.base, got.end, got.brk, want.base, want.end, want.brk)
	}
	var addrs []uint64
	for a := range got.sizeOf {
		addrs = append(addrs, a)
	}
	for a := range want.sizeOf {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range slices.Compact(addrs) {
		if g, w := got.sizeOf[a], want.sizeOf[a]; g != w {
			out += fmt.Sprintf("\n block %#x: class %d, want %d", a, g, w)
		}
	}
	for cls := range want.freeLists {
		if !slices.Equal(got.freeLists[cls], want.freeLists[cls]) {
			out += fmt.Sprintf("\n free list %d: %#x, want %#x", cls, got.freeLists[cls], want.freeLists[cls])
		}
	}
	for cls := range got.freeLists {
		if _, ok := want.freeLists[cls]; !ok {
			out += fmt.Sprintf("\n free list %d: %#x, want none", cls, got.freeLists[cls])
		}
	}
	return out
}

func (f *flatHeap) clone() flatHeap {
	c := flatHeap{base: f.base, end: f.end, brk: f.brk,
		freeLists: make(map[uint64][]uint64), sizeOf: make(map[uint64]uint64)}
	for cls, lst := range f.freeLists {
		if len(lst) > 0 {
			c.freeLists[cls] = slices.Clone(lst)
		}
	}
	for a, sz := range f.sizeOf {
		c.sizeOf[a] = sz
	}
	return c
}

// heapPair drives a heap and its flat reference through one sequence and
// fails the test at the first step where they differ.
type heapPair struct {
	t    *testing.T
	h    heap
	f    flatHeap
	step int
}

func newHeapPair(t *testing.T, base, size uint64) *heapPair {
	h := newHeap(base, size)
	return &heapPair{t: t, h: h, f: h.flat()}
}

// trim drops the empty free lists, which flat does not report.
func (f *flatHeap) trim() *flatHeap {
	for cls, lst := range f.freeLists {
		if len(lst) == 0 {
			delete(f.freeLists, cls)
		}
	}
	return f
}

func (p *heapPair) check(what string) {
	p.t.Helper()
	p.step++
	if got := p.h.flat(); !reflect.DeepEqual(got, *p.f.trim()) {
		p.t.Fatalf("step %d (%s): heap and reference differ:%s", p.step, what, diffFlat(got, p.f))
	}
}

func (p *heapPair) alloc(n uint64) uint64 {
	p.t.Helper()
	got, want := p.h.alloc(n), p.f.alloc(n)
	if got != want {
		p.t.Fatalf("step %d: alloc(%d) = %#x, reference %#x", p.step, n, got, want)
	}
	p.check("alloc")
	return got
}

func (p *heapPair) free(addr uint64) {
	p.t.Helper()
	err, ok := p.h.free(addr), p.f.free(addr)
	if (err == nil) != ok {
		p.t.Fatalf("step %d: free(%#x) = %v, reference freed %v", p.step, addr, err, ok)
	}
	if live := p.h.live(addr); live {
		p.t.Fatalf("step %d: %#x live after free", p.step, addr)
	}
	p.check("free")
}

func (p *heapPair) rebase(src, dst, length uint64) {
	p.t.Helper()
	p.h.rebase(src, dst, length)
	p.f.rebaseWalk(src, dst, length)
	p.check("rebase")
}

// moveAllocation is InjectWorstCaseAllocationMove's heap side: a block of
// the moving one's class at dst, the move, the vacated block donated.
func (p *heapPair) moveAllocation(base, length uint64) uint64 {
	p.t.Helper()
	dst := p.alloc(length)
	if dst == 0 {
		return 0
	}
	p.rebase(base, dst, length)
	p.h.donate(base, sizeClass(length))
	p.f.freeLists[sizeClass(length)] = append(p.f.freeLists[sizeClass(length)], base)
	p.check("donate")
	return dst
}

// TestHeapRebaseProbeMatchesWalk holds rebase to rebaseWalk on fixed
// ranges: whole pages (re-pointed), unaligned and partial ranges (re-keyed
// block by block), and ranges past the blocks.
func TestHeapRebaseProbeMatchesWalk(t *testing.T) {
	const base, size, page = 0x100000, 0x10000, 0x1000
	build := func(blocks int, sizes func(i int) uint64) heap {
		h := newHeap(base, size)
		var addrs []uint64
		for i := 0; i < blocks; i++ {
			addrs = append(addrs, h.alloc(sizes(i)))
		}
		for i := 0; i < len(addrs); i += 3 { // leave holes, fill free lists
			if err := h.free(addrs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	mixed := func(i int) uint64 { return uint64(8 + i%5*24) }
	dense := build(600, mixed)
	sparse := build(12, mixed)
	// 256 16-byte blocks a page, three pages of them.
	sixteen := build(768, func(int) uint64 { return 16 })
	// A 64-byte block at 0xfe0 reaches 0x20 into the second page.
	spanning := build(255, func(int) uint64 { return 16 })
	spanning.alloc(64)
	spanning.alloc(16)
	for _, tc := range []struct {
		name             string
		changes          bool // whether anything moves at all
		h                *heap
		src, dst, length uint64
	}{
		{"interior page", true, &dense, base + 2*page, 0x900000, page},
		{"page holding brk", true, &dense, dense.brk &^ (page - 1), 0x900000, page},
		{"first page and base", true, &dense, base, 0x900000, page},
		{"one block, unaligned to pages", true, &dense, base + 0x1230, 0x900040, 0x50},
		{"no block in range", false, &dense, base + size - page, 0x900000, page},
		{"interior page, few blocks", true, &sparse, base, 0x900000, page},
		{"page holding brk, few blocks", true, &sparse, sparse.brk &^ (page - 1), 0x900000, page},
		{"whole heap", true, &dense, base, 0x900000, size},
		{"range past the end holds end", true, &sparse, base + size, 0x900000, page},
		{"a page of 256 16-byte blocks", true, &sixteen, base + page, 0x900000, page},
		{"three pages, end pages partly", true, &dense, base + 0x830, 0x900830, 2*page + 0x400},
		{"three pages, shifted by less than a page", true, &dense, base + 0x830, 0x900130, 2*page + 0x400},
		{"the page a block starts on", true, &spanning, base, 0x900000, page},
		{"the page a block reaches into", true, &spanning, base + page, 0x900000, page},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.h.clone()
			want := got.flat()
			got.rebase(tc.src, tc.dst, tc.length)
			want.rebaseWalk(tc.src, tc.dst, tc.length)
			if g := got.flat(); !reflect.DeepEqual(g, *want.trim()) {
				t.Errorf("rebase(%#x, %#x, %#x):\n got %+v\nwant %+v", tc.src, tc.dst, tc.length, g, want)
			}
			if changed := !reflect.DeepEqual(got.flat(), tc.h.flat()); changed != tc.changes {
				t.Errorf("rebase changed the heap = %v, want %v", changed, tc.changes)
			}
		})
	}
}

func (h *heap) clone() heap {
	c := *h
	c.freeLists = make(map[uint64][]uint64)
	for cls, lst := range h.freeLists {
		c.freeLists[cls] = slices.Clone(lst)
	}
	c.slots, c.pages = clonemap(h.slots), clonemap(h.pages)
	c.classes = nil
	h.eachClass(c.setClass)
	return c
}

func clonemap(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// TestHeapMoveThenReuse: a page moves whole and comes back; an allocation
// moves, unaligned, into a page that already holds blocks; a block freed
// after its page moved is what the next allocation of its class returns, at
// its new address.
func TestHeapMoveThenReuse(t *testing.T) {
	const base, page = 0x100000, 0x1000
	p := newHeapPair(t, base, 0x10000)
	var blocks []uint64
	for i := 0; i < 300; i++ {
		blocks = append(blocks, p.alloc(16))
	}
	p.free(blocks[3])
	p.rebase(base, 0x900000, page) // one slot re-pointed, a free block on it
	if len(p.h.slots) != 2 || len(p.h.pages) != 1 {
		t.Fatalf("one page away: %d slot entries, %d page entries", len(p.h.slots), len(p.h.pages))
	}
	moved := blocks[5] - base + 0x900000
	if !p.h.live(moved) || p.h.live(blocks[5]) {
		t.Fatalf("block %#x: live at its old address or not at its new one", blocks[5])
	}
	p.free(moved)
	if got := p.alloc(16); got != moved {
		t.Fatalf("alloc after a free at the moved address = %#x, want %#x", got, moved)
	}
	if got := p.alloc(16); got != blocks[3]-base+0x900000 {
		t.Fatalf("alloc of the block freed before the move = %#x, want %#x", got, blocks[3]-base+0x900000)
	}
	// An allocation on the second page moves into the first page's blocks'
	// neighbourhood: a 48-byte block freshly cut at brk, then back.
	big := p.alloc(40)
	dst := p.moveAllocation(blocks[260], 16)
	if p.h.live(blocks[260]) || !p.h.live(dst) {
		t.Fatalf("allocation move: source live or destination not")
	}
	p.moveAllocation(big, 40)
	p.rebase(0x900000, base, page) // home again: the table holds no exception for it
	if _, away := p.h.pages[base]; away {
		t.Fatal("a page back home keeps a page entry")
	}
}

// TestHeapMatchesFlatReference runs seeded random sequences of allocations,
// frees, page moves (to fresh frames, some shifted by less than a page, and
// onto frames earlier moves vacated), allocation moves and swaps back, checking the heap against the
// address-keyed reference after every step. Halfway, the heap is released
// and a new one takes its class table, the earlier heap's pages in it. The
// sequences must reach a fresh slot past the home range, which grows the
// class table past the home pages, a page move carrying free blocks, and a
// recycled table.
func TestHeapMatchesFlatReference(t *testing.T) {
	const base, size, page = 0x100000, 0x40000, 0x1000
	var pastHome, movedFree, recycled int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newHeapPair(t, base, size)
		fresh := uint64(0x4000000)
		var vacated []uint64 // frames a page move left, free for another
		var released *classTable
		for i := 0; i < 400; i++ {
			if i == 200 {
				released = p.h.classes
				p.h.release()
				p.h = newHeap(base, size)
				p.f, vacated = p.h.flat(), nil
			}
			if p.h.classes != nil && len(p.h.classes.pages) > int((p.h.homeHi-p.h.homeLo)/heapPage) {
				pastHome++
			}
			var live []uint64
			for a := range p.f.sizeOf {
				live = append(live, a)
			}
			slices.Sort(live)
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0:
				sz := uint64(1 + rng.Intn(200))
				if rng.Intn(8) == 0 {
					sz = uint64(page + rng.Intn(2*page))
				}
				p.alloc(sz)
			case op < 6:
				p.free(live[rng.Intn(len(live))])
			case op < 8:
				src, n := p.f.expand(live[rng.Intn(len(live))]&^(page-1), uint64(1+rng.Intn(2))*page, page)
				fresh = max(fresh, src+n) // the ranges never overlap
				dst := fresh
				// A vacated frame takes a page if nothing is there and brk
				// is past it, as a kernel hands out only frames it freed.
				if j := rng.Intn(len(vacated) + 1); n == page && j < len(vacated) && p.f.empty(vacated[j], page) &&
					(vacated[j] >= base+size || vacated[j] < p.f.brk&^(page-1)) {
					dst = vacated[j]
					vacated = slices.Delete(vacated, j, j+1)
				} else if fresh += n; rng.Intn(3) == 0 {
					// Shifted by less than a page, the blocks are re-keyed
					// one by one onto pages that take fresh slots.
					dst += uint64(1+rng.Intn(page/heapAlign-1)) * heapAlign
					fresh += page
				}
				for q := src; q < src+n; q += page {
					if !slices.Contains(vacated, q) {
						vacated = append(vacated, q)
					}
				}
				for _, lst := range p.f.freeLists {
					if slices.ContainsFunc(lst, func(a uint64) bool { return a >= src && a < src+n }) {
						movedFree++
						break
					}
				}
				p.rebase(src, dst, n)
			default:
				a := live[rng.Intn(len(live))]
				p.moveAllocation(a, p.f.sizeOf[a]-uint64(rng.Intn(16)))
			}
		}
		if released != nil && p.h.classes == released {
			recycled++
		}
		p.h.release()
	}
	if pastHome == 0 || movedFree == 0 || recycled == 0 {
		t.Errorf("steps with the class table past the home pages: %d, page moves carrying free blocks: %d, "+
			"reloads on a recycled table: %d; want each above 0", pastHome, movedFree, recycled)
	}
	t.Logf("steps past the home pages %d, page moves carrying free blocks %d, recycled tables %d", pastHome, movedFree, recycled)
}

// TestHeapBytesBound: a class page entry holds class>>3 in 32 bits, so Load
// refuses a heap of MaxHeapBytes or more, and alloc cuts no class larger than
// the heap it has, however large the request, nor one that wraps: the entry
// is never truncated.
func TestHeapBytesBound(t *testing.T) {
	m := ir.MustParse(`module "h"
func @main() -> i64 {
entry:
  ret i64 0
}`)
	for _, tc := range []struct {
		heap    uint64
		refused bool
	}{{MaxHeapBytes - heapAlign, false}, {MaxHeapBytes, true}, {MaxHeapBytes + heapAlign, true}} {
		cfg := DefaultConfig()
		cfg.MemBytes, cfg.HeapBytes = 1<<22, tc.heap
		v, err := Load(m, cfg)
		if refused := err != nil && strings.Contains(err.Error(), "the heap holds below"); refused != tc.refused {
			t.Errorf("HeapBytes %#x: load error %v, want refused %v", tc.heap, err, tc.refused)
		}
		if v != nil {
			_ = v.Release()
		}
	}
	const base = 0x100000
	h := newHeap(base, MaxHeapBytes-heapAlign)
	defer h.release()
	for _, n := range []uint64{MaxHeapBytes, MaxHeapBytes - 1, ^uint64(0), ^uint64(0) - heapAlign} {
		if a := h.alloc(n); a != 0 {
			t.Errorf("alloc(%#x) = %#x from a heap of %#x bytes", n, a, uint64(MaxHeapBytes-heapAlign))
		}
	}
	if a := h.alloc(MaxHeapBytes - heapAlign); a != base || h.class(base) != MaxHeapBytes-heapAlign {
		t.Errorf("a block the size of the heap: at %#x, class %#x", a, h.class(base))
	}
	if err := h.free(base); err != nil || h.class(base) != MaxHeapBytes-heapAlign|freeBit {
		t.Errorf("freed: %v, class %#x", err, h.class(base))
	}
}
