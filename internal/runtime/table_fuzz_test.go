package runtime

import (
	"cmp"
	"slices"
	"testing"

	"carat/internal/guard"
	"carat/internal/kernel"
)

// modelTable is the escape map the way the table kept it before the reverse
// index was bucketed by page and allocations counted their own escapes: one
// flat location→allocation map, and every question answered by scanning it —
// RebaseEscapeLocs walks every escape of the process to find those in the
// range, an allocation's escape count is a census. FuzzAllocationTable holds
// the indexed table to it.
type modelTable struct {
	allocs []*modelAlloc
	esc    map[uint64]*modelAlloc
}

type modelAlloc struct{ base, length uint64 }

func (m *modelTable) covering(addr uint64) *modelAlloc {
	for _, a := range m.allocs {
		if addr >= a.base && addr < a.base+a.length {
			return a
		}
	}
	return nil
}

func (m *modelTable) based(base uint64) *modelAlloc {
	if a := m.covering(base); a != nil && a.base == base {
		return a
	}
	return nil
}

func (m *modelTable) overlaps(base, length uint64, except *modelAlloc) bool {
	for _, a := range m.allocs {
		if a != except && base < a.base+a.length && a.base < base+length {
			return true
		}
	}
	return false
}

// overlapsOutside reports whether [base, base+length) overlaps an
// allocation that is not one of run.
func (m *modelTable) overlapsOutside(base, length uint64, run []*modelAlloc) bool {
	for _, a := range m.allocs {
		if !slices.Contains(run, a) && base < a.base+a.length && a.base < base+length {
			return true
		}
	}
	return false
}

// sorted returns the allocations in base order.
func (m *modelTable) sorted() []*modelAlloc {
	out := slices.Clone(m.allocs)
	slices.SortFunc(out, func(a, b *modelAlloc) int { return cmp.Compare(a.base, b.base) })
	return out
}

func (m *modelTable) remove(a *modelAlloc) {
	for loc, t := range m.esc {
		if t == a {
			delete(m.esc, loc)
		}
	}
	m.allocs = slices.DeleteFunc(m.allocs, func(x *modelAlloc) bool { return x == a })
}

func (m *modelTable) setEscape(loc uint64, a *modelAlloc) {
	delete(m.esc, loc)
	if a != nil {
		m.esc[loc] = a
	}
}

func (m *modelTable) rebaseEscapeLocs(lo, hi, newLo uint64) int {
	type moved struct {
		loc uint64
		a   *modelAlloc
	}
	var ms []moved
	for loc, a := range m.esc {
		if loc >= lo && loc < hi {
			ms = append(ms, moved{loc, a})
		}
	}
	for _, x := range ms {
		delete(m.esc, x.loc)
	}
	for _, x := range ms {
		m.esc[x.loc-lo+newLo] = x.a
	}
	return len(ms)
}

func (m *modelTable) locsOf(a *modelAlloc) []uint64 {
	var out []uint64
	for loc, t := range m.esc {
		if t == a {
			out = append(out, loc)
		}
	}
	slices.Sort(out)
	return out
}

// mostEscaped is WorstCasePage's rule spelled out: of the resident
// allocations, most escapes, lowest base among equals.
func (m *modelTable) mostEscaped() *modelAlloc {
	var best *modelAlloc
	bestN := -1
	for _, a := range m.allocs {
		if kernel.IsPoison(a.base) {
			continue
		}
		n := len(m.locsOf(a))
		if n > bestN || (n == bestN && a.base < best.base) {
			best, bestN = a, n
		}
	}
	return best
}

// escapeLocs is EscapeLocsOf for one allocation.
func (t *AllocationTable) escapeLocs(a *Allocation) []uint64 {
	locs, _ := t.EscapeLocsOf([]*Allocation{a}, nil, nil)
	return locs
}

// relinkEscape makes loc an escape into allocation a (nil: into nothing),
// whatever it points at: the fuzzer's way to move an escape between sets.
func (t *AllocationTable) relinkEscape(loc uint64, a *Allocation) {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	t.setEscape(loc, a)
}

// The fuzzed address space: 48 allocation slots of 0x100 bytes, and escape
// locations anywhere — any alignment — in eight pages, with four more pages
// above them for ranges to be moved to.
const (
	fzAllocLo  = 0x10000
	fzSlot     = 0x100
	fzSlots    = 48
	fzLocLo    = 0x40000
	fzLocSpan  = 8 * kernel.PageSize
	fzDestSpan = 12 * kernel.PageSize
)

const (
	fzInsert = iota
	fzRemove
	fzAddEscape
	fzRemoveEscape
	fzRelink
	fzRebase
	fzRebaseLocs
	fzPick
	fzSwap
	fzInnerEscape
	fzRebaseRun
	fzRelease
	fzOps
)

// tableOps packs the fuzz input: seven bytes an op — the op, two for an
// escape location, then c, d, e, f, which each op reads its own way (see the
// decoder in FuzzAllocationTable).
func tableOps(ops ...[7]byte) []byte {
	var out []byte
	for _, op := range ops {
		out = append(out, op[:]...)
	}
	return out
}

// FuzzAllocationTable drives the table and the map-scan model with one
// sequence of Insert/Remove/AddEscape/RemoveEscape/relinkEscape/Rebase/
// RebaseEscapeLocs/WorstCasePage, swaps — an allocation and the escape
// locations inside it rebased to a poison base, or back from one, as SwapOut
// and SwapIn rebase them — escapes located inside allocations, and
// releases (the model starts over, beside the released table or a new
// process's, either of which takes the released slab and buckets), and
// requires, after every step: the same allocations, the same escape set and
// count per allocation, the same
// EscapeTarget for every location either side knows, the same return values,
// RebaseEscapeLocs examining nothing outside the pages its range touches, and
// CheckInvariants (the subtree maxima included). The input decides when to
// pick, so changes pile up between picks as they do between injected moves;
// the pick is compared once more at the end.
func FuzzAllocationTable(f *testing.F) {
	// Three allocations with 3, 2 and 1 escapes, located on three pages at
	// odd alignments (0x40ffd straddles a page edge).
	setup := [][7]byte{
		{fzInsert, 0, 0xff}, {fzInsert, 2, 0x40}, {fzInsert, 5, 0x80},
		{fzAddEscape, 0x00, 0x08, 0, 0x10}, {fzAddEscape, 0x0f, 0xfd, 0, 0x20}, {fzAddEscape, 0x2a, 0xb0, 0, 0},
		{fzAddEscape, 0x10, 0x00, 2, 0}, {fzAddEscape, 0x10, 0x03, 2, 1},
		{fzAddEscape, 0x2a, 0xa8, 5, 0x7f},
	}
	with := func(ops ...[7]byte) []byte { return tableOps(append(slices.Clone(setup), ops...)...) }
	for _, ops := range [][][7]byte{
		{{fzRebaseLocs, 0x10, 0x00, 0x10, 0x00, 0x90, 0x00}}, // one whole page, aligned, to an empty one
		{{fzRebaseLocs, 0x0f, 0xfd, 0x00, 0x08, 0x80, 0x05}}, // 8 bytes from the middle of a word across a page edge
		{{fzRebaseLocs, 0x0f, 0x00, 0x1c, 0x93, 0x93, 0x33}}, // unaligned, three pages, unaligned destination
		{{fzRebaseLocs, 0x50, 0x00, 0x20, 0x00, 0xa0, 0x00}}, // zero hits
		{{fzRebaseLocs, 0x10, 0x00, 0x10, 0x00, 0x2a, 0xa8}}, // onto a populated location
		{{fzRebaseLocs, 0x10, 0x00, 0x00, 0x03, 0x10, 0x03}}, // 3 bytes, onto the neighbour just past the range
		{{fzRebaseLocs, 0x00, 0x00, 0x40, 0x00, 0x80, 0x00}}, // more pages than the index has buckets: walks them
		{{fzRebaseLocs, 0x00, 0x08, 0x10, 0x00, 0x00, 0x10}}, // overlaps its own destination
		{{fzRemove, 0}, {fzRemoveEscape, 0x10, 0x03}},        // leaves a tie for most escapes
		{{fzRelink, 0x10, 0x00, 5}, {fzRelink, 0x33, 0x31, 2}, {fzRebase, 0, 0, 2, 9}},
		{{fzAddEscape, 0x10, 0x00, 40, 0}, {fzAddEscape, 0x10, 0x03, 5, 1}}, // retarget: to nothing, to another
		// A tie (2 and 2) the lower base wins, until a Rebase moves it above.
		{{fzRemoveEscape, 0x00, 0x08}, {fzPick}, {fzRebase, 0, 0, 0, 9}, {fzPick}},
		// The top's count falls to 0 — the root's maximum falls to the next
		// allocation's — and comes back.
		{{fzAddEscape, 0x30, 0x00, 5, 1}, {fzAddEscape, 0x30, 0x08, 5, 2}, {fzAddEscape, 0x30, 0x10, 5, 3}, {fzPick},
			{fzRemoveEscape, 0x2a, 0xa8}, {fzRemoveEscape, 0x30, 0x00}, {fzRemoveEscape, 0x30, 0x08}, {fzRemoveEscape, 0x30, 0x10}, {fzPick},
			{fzAddEscape, 0x2a, 0xa8, 5, 0}, {fzAddEscape, 0x30, 0x00, 5, 1}, {fzAddEscape, 0x30, 0x08, 5, 2}, {fzAddEscape, 0x30, 0x10, 5, 3}, {fzPick}},
		// The top is freed; then the last escape anywhere goes.
		{{fzPick}, {fzRemove, 0}, {fzPick}, {fzRemove, 2}, {fzPick}, {fzRemoveEscape, 0x2a, 0xa8}, {fzPick}},
		// One count rises and falls below the top between picks, three times.
		{{fzPick}, {fzAddEscape, 0x33, 0x00, 2, 0}, {fzPick}, {fzRemoveEscape, 0x33, 0x00}, {fzPick},
			{fzAddEscape, 0x33, 0x00, 2, 0}, {fzPick}, {fzRemoveEscape, 0x33, 0x00}, {fzPick},
			{fzAddEscape, 0x33, 0x00, 2, 0}, {fzPick}, {fzRemoveEscape, 0x33, 0x00}, {fzPick}},
		// More allocations are inserted and change between two picks than the
		// table held at the first.
		{{fzPick}, {fzInsert, 10, 0x40}, {fzAddEscape, 0x34, 0x00, 10, 0}, {fzInsert, 11, 0x40}, {fzAddEscape, 0x34, 0x08, 11, 0},
			{fzInsert, 12, 0x40}, {fzAddEscape, 0x34, 0x10, 12, 0}, {fzInsert, 13, 0x40}, {fzAddEscape, 0x34, 0x18, 13, 0},
			{fzAddEscape, 0x34, 0x20, 13, 1}, {fzAddEscape, 0x34, 0x28, 13, 2}, {fzAddEscape, 0x34, 0x30, 13, 3}, {fzPick}},
		// Allocation 0's set is 0x40008, 0x40ffd, 0x42ab0: dropping the first
		// moves the last, whose reverse entry sits on another page, into its
		// position; retargeting it from there moves 0x40ffd back across.
		{{fzRemoveEscape, 0x00, 0x08}, {fzAddEscape, 0x2a, 0xb0, 2, 0}, {fzRemoveEscape, 0x0f, 0xfd}, {fzPick}},
		// Page 0x41000's escapes move onto page 0x42000, which has a bucket:
		// the emptied one is kept, and page 0x45000 takes it.
		{{fzRebaseLocs, 0x10, 0x00, 0x10, 0x00, 0x20, 0x00}, {fzAddEscape, 0x50, 0x00, 2, 0}, {fzPick}},
		// Allocation 0 is rebased past its neighbour at slot 2 and back: its
		// tree node is unlinked and re-linked twice.
		{{fzRebase, 0, 0, 0, 3}, {fzPick}, {fzRebase, 0, 0, 0, 0}, {fzPick}},
		// The only allocation with escapes is swapped out: the pick is the
		// lowest-based resident one, then, with all three out, none; swapped
		// back in at slot 7, allocation 0 is the pick again.
		{{fzRemoveEscape, 0x10, 0x00}, {fzRemoveEscape, 0x10, 0x03}, {fzRemoveEscape, 0x2a, 0xa8},
			{fzSwap, 0, 0, 0}, {fzPick}, {fzSwap, 0, 0, 1}, {fzSwap, 0, 0, 2}, {fzPick}, {fzSwap, 0, 0, 0, 7}, {fzPick}},
		// Allocation 0 holds pointers at +0x10 and +0xf8: they go out with it
		// and come back at slot 9; a swap-in onto slot 2 is refused.
		{{fzInnerEscape, 0x00, 0x10, 2, 0}, {fzInnerEscape, 0x00, 0xf8, 5, 8}, {fzSwap, 0, 0, 0}, {fzPick},
			{fzSwap, 0, 0, 0, 2}, {fzSwap, 0, 0, 0, 9}, {fzPick}},
	} {
		f.Add(with(ops...))
	}
	// 100 escapes into allocation 2 over all eight pages, every seventh
	// retargeted to allocation 5 (a swap-delete from the middle), then
	// allocation 2 freed: Remove pops its set empty.
	var hundred [][7]byte
	for i := 0; i < 100; i++ {
		loc := uint16(i * 0x149)
		hundred = append(hundred, [7]byte{fzAddEscape, byte(loc >> 8), byte(loc), 2, byte(i % 0x40)})
		if i%7 == 6 {
			loc := uint16((i - 3) * 0x149)
			hundred = append(hundred, [7]byte{fzAddEscape, byte(loc >> 8), byte(loc), 5, 0})
		}
	}
	f.Add(with(append(hundred, [7]byte{fzPick}, [7]byte{fzRemove, 2}, [7]byte{fzPick})...))
	// Seven allocations inserted as a balanced tree, 4(2(1,3),6(5,7)), and
	// five escapes into one of them. A delete whose successor takes the
	// deleted node's place must re-pull the whole path: 2, the only
	// allocation with escapes, is swapped out (unlinked, its successor 3
	// keeps its own maximum, and the root's must still fall); 4, the root, is
	// freed while 1 holds the escapes (its successor 5 comes up from below 6,
	// whose maximum does not change, and must take 1's).
	balanced := func(slot byte) [][7]byte {
		var ops [][7]byte
		for _, s := range []byte{4, 2, 6, 1, 3, 5, 7} {
			ops = append(ops, [7]byte{fzInsert, s, 0x3f})
		}
		for i := byte(0); i < 5; i++ {
			ops = append(ops, [7]byte{fzAddEscape, 0x01, i * 8, slot, i})
		}
		return append(ops, [7]byte{fzPick})
	}
	f.Add(tableOps(append(balanced(2), [7]byte{fzSwap, 0, 0, 1}, [7]byte{fzPick})...))
	f.Add(tableOps(append(balanced(1), [7]byte{fzRemove, 4}, [7]byte{fzPick})...))
	// Allocation 0's set ends in 0x41000, 0x40000; 0x40000 moves onto
	// 0x41000, whose stale escape is dropped first: the drop's swap-delete
	// moves the moving escape into its place, and the move must write it
	// there.
	f.Add(with([7]byte{fzAddEscape, 0x10, 0x00, 0, 0x30}, [7]byte{fzAddEscape, 0x00, 0x00, 0, 0x31},
		[7]byte{fzRebaseLocs, 0x00, 0x00, 0x00, 0x08, 0x10, 0x00}, [7]byte{fzPick}))

	// 36 allocations inserted out of order, eight of them with 1–8 escapes,
	// then runs of 8, 8, 5 and 1 spliced out and back in across the tree,
	// a pick after each: the joins between trees of unequal black height
	// must recolour and rotate, and the maxima of what they rebuild must
	// follow.
	var runs [][7]byte
	for i := 0; i < 36; i++ {
		runs = append(runs, [7]byte{fzInsert, byte(i * 17 % 36), 0x3f})
	}
	for i := 0; i < 8; i++ {
		for j := 0; j <= i; j++ {
			loc := uint16(i*0x200 + j*8)
			runs = append(runs, [7]byte{fzAddEscape, byte(loc >> 8), byte(loc), byte(i*5 + 1), 0})
		}
	}
	runs = append(runs, [7]byte{fzPick},
		[7]byte{fzRebaseRun, 0, 0, 2, 7, 40, 0}, [7]byte{fzPick}, // slots 2–9 to 40–47
		[7]byte{fzRebaseRun, 0, 0, 20, 7, 2, 0}, [7]byte{fzPick}, // the 21st to 28th to 2–9
		[7]byte{fzRebaseRun, 0, 0, 0, 4, 22, 0x80}, [7]byte{fzPick}, // five, to between slots
		[7]byte{fzRebaseRun, 0, 0, 30, 0, 0, 0}, [7]byte{fzPick})
	f.Add(tableOps(runs...))

	// Page 0x43000 fills word by word, one unaligned location among them,
	// from 1 entry to all 512; the full page moves whole onto an empty page
	// and back; then it empties word by word, and its bucket must go back.
	var full [][7]byte
	word := func(op byte, w int) [7]byte { return [7]byte{op, byte(0x30 + w>>5), byte(w << 3), 2, byte(w % 0x40)} }
	for w := 0; w < 512; w++ {
		full = append(full, word(fzAddEscape, w))
	}
	full = append(full, [7]byte{fzAddEscape, 0x30, 0x05, 5, 0}, [7]byte{fzPick},
		[7]byte{fzRebaseLocs, 0x30, 0x00, 0x10, 0x00, 0x70, 0x00}, [7]byte{fzRebaseLocs, 0x70, 0x00, 0x10, 0x00, 0x30, 0x00})
	for w := 0; w < 512; w++ {
		full = append(full, word(fzRemoveEscape, w))
	}
	f.Add(with(append(full, [7]byte{fzRemoveEscape, 0x30, 0x05}, [7]byte{fzPick})...))
	// Page-aligned moves of whole pages by a page: pages 0x40000–0x42000
	// up onto themselves and an empty page; pages 0x41000–0x42000 down onto
	// page 0x40000, whose bucket keeps the escapes no mover lands on; page
	// 0x42000 down onto page 0x41000, whose escape at 0x41ab0 one lands on.
	f.Add(with([7]byte{fzRebaseLocs, 0x00, 0x00, 0x30, 0x00, 0x10, 0x00}, [7]byte{fzPick}))
	f.Add(with([7]byte{fzRebaseLocs, 0x10, 0x00, 0x20, 0x00, 0x00, 0x00}, [7]byte{fzPick}))
	f.Add(with([7]byte{fzAddEscape, 0x1a, 0xb0, 5, 0}, [7]byte{fzRebaseLocs, 0x20, 0x00, 0x10, 0x00, 0x10, 0x00}, [7]byte{fzPick}))
	// A table with escapes on four pages, aligned and not, is released; the
	// next one's first buckets are the released ones, entries and all, and
	// must read empty.
	f.Add(with(word(fzAddEscape, 1), word(fzAddEscape, 9), [7]byte{fzAddEscape, 0x30, 0x05, 2, 0}, [7]byte{fzRelease},
		[7]byte{fzInsert, 2, 0x40}, [7]byte{fzAddEscape, 0x30, 0x10, 2, 0}, [7]byte{fzAddEscape, 0x00, 0x03, 2, 0}, [7]byte{fzPick}))
	// Slots are reused: allocation 2 is freed and slot 9 takes its slot;
	// the table is released with a slot on its free list and refilled, then
	// released to a new process's table, which takes the same slab.
	for _, c := range []byte{0, 1} {
		f.Add(with([7]byte{fzRemove, 2}, [7]byte{fzInsert, 9, 0x10}, [7]byte{fzAddEscape, 0x20, 0x00, 9, 0}, [7]byte{fzRemove, 5},
			[7]byte{fzRelease, 0, 0, c}, [7]byte{fzInsert, 4, 0x20}, [7]byte{fzInsert, 3, 0x20}, [7]byte{fzAddEscape, 0x00, 0x08, 3, 0},
			[7]byte{fzRemove, 4}, [7]byte{fzInsert, 6, 0x20}, [7]byte{fzAddEscape, 0x00, 0x10, 6, 0}, [7]byte{fzPick},
			[7]byte{fzRelease, 0, 0, 1}, [7]byte{fzInsert, 1, 0x08}, [7]byte{fzAddEscape, 0x00, 0x18, 1, 0}, [7]byte{fzPick}))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		rt := New(kernel.NewPhysMem(kernel.PageSize), nil, nil)
		tb := rt.Table
		m := &modelTable{esc: map[uint64]*modelAlloc{}}
		live := map[*modelAlloc]*Allocation{}
		slots := uint64(0) // swap slots handed out
		comparePick := func(step int) {
			ma := m.mostEscaped()
			if got := tb.mostEscaped(); got != live[ma] {
				t.Fatalf("step %d: picked %v, model %v", step, got, ma)
			}
			if page, ok := rt.WorstCasePage(); ok != (ma != nil) || ok && page != alignDown(ma.base) {
				t.Fatalf("step %d: WorstCasePage = %#x, %v; model %v", step, page, ok, ma)
			}
		}
		pick := func(b byte) *modelAlloc {
			if len(m.allocs) == 0 {
				return nil
			}
			return m.allocs[int(b)%len(m.allocs)]
		}
		step := 0
		for ; len(in) >= 7; step, in = step+1, in[7:] {
			a, b, c, d := in[1], in[2], in[3], in[4]
			loc := fzLocLo + (uint64(a)<<8|uint64(b))%fzLocSpan
			switch in[0] % fzOps {
			case fzInsert:
				base, length := fzAllocLo+uint64(a%fzSlots)*fzSlot, uint64(b)+1
				al, err := tb.Insert(base, length, false)
				if want := m.overlaps(base, length, nil); (err != nil) != want {
					t.Fatalf("step %d: Insert(%#x,%#x) = %v, model overlap %v", step, base, length, err, want)
				}
				if err == nil {
					ma := &modelAlloc{base, length}
					m.allocs = append(m.allocs, ma)
					live[ma] = al
				}
			case fzRemove:
				base := fzAllocLo + uint64(a%fzSlots)*fzSlot
				ma := m.based(base)
				if got := tb.Remove(base); got != live[ma] {
					t.Fatalf("step %d: Remove(%#x) = %v, model %v", step, base, got, ma)
				}
				if ma != nil {
					m.remove(ma)
					delete(live, ma)
				}
			case fzAddEscape:
				target := fzAllocLo + uint64(c%fzSlots)*fzSlot + uint64(d)
				ma := m.covering(target)
				m.setEscape(loc, ma)
				if got := tb.AddEscape(loc, target); got != (ma != nil) {
					t.Fatalf("step %d: AddEscape(%#x,%#x) = %v, model %v", step, loc, target, got, ma != nil)
				}
			case fzRemoveEscape:
				m.setEscape(loc, nil)
				tb.RemoveEscape(loc)
			case fzRelink:
				if ma := pick(c); ma != nil {
					m.setEscape(loc, ma)
					tb.relinkEscape(loc, live[ma])
				}
			case fzRebase:
				ma, base := pick(c), fzAllocLo+uint64(d%fzSlots)*fzSlot
				if ma == nil || m.overlaps(base, ma.length, ma) {
					continue
				}
				tb.Rebase([]*Allocation{live[ma]}, ma.base, base)
				ma.base = base
			case fzRebaseLocs:
				lo, hi := loc, loc+(uint64(c)<<8|uint64(d))%(4*kernel.PageSize+1)
				newLo := fzLocLo + (uint64(in[5])<<8|uint64(in[6]))%fzDestSpan
				onPages := 0
				for l := range m.esc {
					if pageOf(l) >= pageOf(lo) && lo < hi && pageOf(l) <= pageOf(hi-1) {
						onPages++
					}
				}
				want := m.rebaseEscapeLocs(lo, hi, newLo)
				moved, visited := tb.RebaseEscapeLocs(lo, hi, newLo)
				if moved != want {
					t.Fatalf("step %d: RebaseEscapeLocs(%#x,%#x,%#x) moved %d, model %d", step, lo, hi, newLo, moved, want)
				}
				if visited != onPages {
					t.Fatalf("step %d: RebaseEscapeLocs(%#x,%#x,%#x) examined %d entries, the pages of the range hold %d",
						step, lo, hi, newLo, visited, onPages)
				}
			case fzPick:
				comparePick(step)
			case fzSwap:
				ma := pick(c)
				if ma == nil {
					continue
				}
				src, dst := ma.base, swapPoison(slots, 0)
				if kernel.IsPoison(src) {
					dst = fzAllocLo + uint64(d%fzSlots)*fzSlot
					if m.overlaps(dst, ma.length, ma) {
						continue
					}
				} else if slots++; slots > maxSwapSlots {
					continue
				}
				ma.base = dst
				want := m.rebaseEscapeLocs(src, src+ma.length, dst)
				tb.Rebase([]*Allocation{live[ma]}, src, dst)
				if moved, _ := tb.RebaseEscapeLocs(src, src+ma.length, dst); moved != want {
					t.Fatalf("step %d: swap of %#x to %#x moved %d escape locations, model %d", step, src, dst, moved, want)
				}
			case fzRebaseRun:
				// The resident allocations from the c-th, d%8+1 of them in
				// base order, to an empty range: a page move's affected set.
				var run []*modelAlloc
				for _, ma := range m.sorted() {
					if !kernel.IsPoison(ma.base) {
						run = append(run, ma)
					}
				}
				if len(run) == 0 {
					continue
				}
				i := int(c) % len(run)
				run = run[i:min(len(run), i+int(d%8)+1)]
				lo, hi := run[0].base, run[len(run)-1].base+run[len(run)-1].length
				dst := fzAllocLo + (uint64(in[5])<<8|uint64(in[6]))%(fzSlots*fzSlot)
				if dst == lo || m.overlapsOutside(dst, hi-lo, run) {
					continue
				}
				as := make([]*Allocation, len(run))
				for j, ma := range run {
					as[j] = live[ma]
					ma.base = ma.base - lo + dst
				}
				tb.Rebase(as, lo, dst)
			case fzRelease:
				tb.Release()
				if err := tb.CheckInvariants(); err != nil || tb.Len() != 0 || tb.EscapeCount() != 0 {
					t.Fatalf("step %d: after Release %d allocations, %d escapes, %v", step, tb.Len(), tb.EscapeCount(), err)
				}
				if c%2 == 1 {
					rt = New(kernel.NewPhysMem(kernel.PageSize), nil, nil)
					tb = rt.Table
				}
				m, live, slots = &modelTable{esc: map[uint64]*modelAlloc{}}, map[*modelAlloc]*Allocation{}, 0
			case fzInnerEscape:
				loc := fzAllocLo + (uint64(a)<<8|uint64(b))%(fzSlots*fzSlot)
				target := fzAllocLo + uint64(c%fzSlots)*fzSlot + uint64(d)
				ma := m.covering(target)
				m.setEscape(loc, ma)
				if got := tb.AddEscape(loc, target); got != (ma != nil) {
					t.Fatalf("step %d: AddEscape(%#x,%#x) = %v, model %v", step, loc, target, got, ma != nil)
				}
			}

			if err := tb.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			var order []*Allocation
			tb.ForEach(func(a *Allocation) bool { order = append(order, a); return true })
			for i, ma := range m.sorted() {
				if i >= len(order) || order[i] != live[ma] || order[i].Base != ma.base {
					t.Fatalf("step %d: the table's %d-th allocation is not the model's %#x", step, i, ma.base)
				}
			}
			if tb.Len() != len(m.allocs) || tb.EscapeCount() != len(m.esc) {
				t.Fatalf("step %d: %d allocations / %d escapes, model %d / %d",
					step, tb.Len(), tb.EscapeCount(), len(m.allocs), len(m.esc))
			}
			for _, ma := range m.allocs {
				al := live[ma]
				if tb.Covering(ma.base) != al || al.Base != ma.base {
					t.Fatalf("step %d: allocation %#x not where the model has it", step, ma.base)
				}
				got, want := tb.escapeLocs(al), m.locsOf(ma)
				slices.Sort(got)
				if !slices.Equal(got, want) || al.EscapeCount() != len(want) {
					t.Fatalf("step %d: allocation %#x escapes %#x (count %d), model %#x",
						step, ma.base, got, al.EscapeCount(), want)
				}
			}
			for l, ma := range m.esc {
				if got, ok := tb.EscapeTarget(l); !ok || got != live[ma] {
					t.Fatalf("step %d: EscapeTarget(%#x) = %v, %v; model %#x", step, l, got, ok, ma.base)
				}
			}
			if got, ok := tb.EscapeTarget(loc); ok != (m.esc[loc] != nil) {
				t.Fatalf("step %d: EscapeTarget(%#x) = %v, %v; model %v", step, loc, got, ok, m.esc[loc])
			}
		}
		comparePick(step)
	})
}

// TestPageMoveVisitsOnlyItsPage is the counter's reason to exist, pinned: a
// one-page move in a table holding 100 000 escapes on other pages examines
// none of them, and /metrics says so as rebase_visited == rebase_moved.
func TestPageMoveVisitsOnlyItsPage(t *testing.T) {
	k, p, rt := newTestRuntime(t)
	base, err := p.GrantRegion(64*kernel.PageSize, guard.PermRW)
	if err != nil {
		t.Fatal(err)
	}
	// One big allocation everything points into, on the last page; 100 000
	// escapes located on pages 8…57.
	target := base + 63*kernel.PageSize
	must(t, rt.TrackAlloc(target, 64))
	for i := uint64(0); i < 100_000; i++ {
		rt.Table.AddEscape(base+8*kernel.PageSize+i*2, target)
	}
	// The page to move: one allocation holding three pointers, one of them
	// unaligned, beside an unrelated escape located on the same page.
	victim := base + 2*kernel.PageSize
	must(t, rt.TrackAlloc(victim, 256))
	for _, off := range []uint64{0, 8, 21} {
		k.Mem.Store64(victim+off, target)
		rt.TrackEscape(victim+off, target)
	}
	rt.Flush()
	if _, err := p.RequestMove(victim, 1); err != nil {
		t.Fatal(err)
	}
	visited, moved := rt.Stats.RebaseVisited.Get(), rt.Stats.RebaseMoved.Get()
	if visited != 3 || moved != 3 {
		t.Errorf("one-page move beside 100 000 escapes: examined %d index entries, moved %d; want 3 and 3", visited, moved)
	}
	if err := rt.Table.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsSeesIndexDamage breaks, one at a time, the things the
// page-bucketed index, the allocation slots and the subtree escape maxima
// add to the invariants, and expects each reported.
func TestCheckInvariantsSeesIndexDamage(t *testing.T) {
	build := func() (*AllocationTable, *Allocation) {
		tb := NewAllocationTable()
		a, err := tb.Insert(0x10000, 64, false)
		must(t, err)
		tb.AddEscape(0x40008, 0x10000)
		tb.AddEscape(0x41010, 0x10008)
		tb.AddEscape(0x41013, 0x10010)
		if tb.mostEscaped() != a {
			t.Fatal("the one allocation with escapes is not picked")
		}
		must(t, tb.CheckInvariants())
		return tb, a
	}
	for name, damage := range map[string]func(*AllocationTable, *Allocation){
		"count drifts from the sets": func(_ *AllocationTable, a *Allocation) { a.nEsc.Add(1) },
		"empty bucket survives": func(tb *AllocationTable, _ *Allocation) {
			tb.takeBucket(pageOf(0x50000))
		},
		"entry in another page's bucket": func(tb *AllocationTable, a *Allocation) {
			b := tb.pages[pageOf(0x41010)]
			delete(b.odd, 0x13)
			b.odd[0x1013] = ref(a.h, 2)
		},
		"entry names the wrong position": func(tb *AllocationTable, a *Allocation) {
			tb.pages[pageOf(0x40008)].put(0x40008, ref(a.h, 1))
		},
		"entry names a freed allocation": func(tb *AllocationTable, _ *Allocation) {
			f, err := tb.Insert(0x20000, 8, false)
			must(t, err)
			tb.AddEscape(0x42000, 0x20000)
			tb.Remove(0x20000) // frees f's slot
			tb.pages[pageOf(0x40008)].put(0x40008, ref(f.h, 0))
		},
		"freed slot lost": func(tb *AllocationTable, _ *Allocation) {
			_, err := tb.Insert(0x20000, 8, false)
			must(t, err)
			tb.Remove(0x20000)
			tb.freed = nil
		},
		"freed slot still linked": func(tb *AllocationTable, _ *Allocation) {
			f, err := tb.Insert(0x20000, 8, false)
			must(t, err)
			tb.Remove(0x20000)
			f.linked = true
		},
		"bucket miscounts its entries": func(tb *AllocationTable, _ *Allocation) {
			tb.pages[pageOf(0x41010)].n++
		},
		"allocation off its slot": func(tb *AllocationTable, a *Allocation) {
			_, err := tb.Insert(0x20000, 8, false)
			must(t, err)
			a.h++
		},
		"subtree maximum stale": func(_ *AllocationTable, a *Allocation) {
			a.max--
		},
		"child names another parent": func(tb *AllocationTable, a *Allocation) {
			c, err := tb.Insert(0x20000, 8, false)
			must(t, err)
			c.parent = nil
		},
	} {
		tb, a := build()
		damage(tb, a)
		if err := tb.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants reports nothing", name)
		} else {
			t.Log(name+":", err)
		}
	}
}
