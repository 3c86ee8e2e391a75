package runtime

import (
	"fmt"
	mathbits "math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"carat/internal/kernel"
)

// pageOf numbers the page holding loc.
func pageOf(loc uint64) uint64 { return loc / kernel.PageSize }

// Allocation is one tracked memory block: a static allocation (global,
// stack region) or a dynamic one (malloc, alloca). escs is its escape set —
// the Allocation to Escape Map entry of §4.2 "Tracking" — each location
// once, in an order fixed by the escape history, guarded by the table's
// escMu; nEsc is its length, so asking for it takes no lock.
type Allocation struct {
	Base uint64
	Len  uint64
	// Static marks load-time allocations (globals, stacks) that free()
	// must never release.
	Static bool

	// h is the allocation's handle, what the reverse index names it by, held
	// while escs is not empty; it fits in Static's padding. node is the tree
	// node holding the allocation, nil once it is removed.
	h    uint32
	node *rbNode

	escs []uint64
	nEsc atomic.Int64
}

// escRef is a reverse-index entry: the handle of the allocation an escape
// points into above the escape's position in its set. No Go pointer, so a
// pooled bucket keeps nothing alive.
type escRef uint64

func ref(h uint32, i int) escRef { return escRef(h)<<32 | escRef(uint32(i)) }
func (r escRef) h() uint32       { return uint32(r >> 32) }
func (r escRef) i() int          { return int(uint32(r)) }

// wordsPerPage is a bucket's slot count: one per 8-byte word of a page.
const wordsPerPage = kernel.PageSize / 8

// bucket holds the reverse entries of one page's escapes: slot[w] is word
// w's while bit w of used is set; an unaligned location's is in odd, by
// in-page offset, made at the page's first. n counts both. odd comes first,
// so the collector scans one word of a bucket.
type bucket struct {
	odd  map[uint64]escRef
	n    int
	used [wordsPerPage / 64]uint64
	slot [wordsPerPage]escRef
}

// get returns loc's entry; b may be nil.
func (b *bucket) get(loc uint64) (escRef, bool) {
	if b == nil {
		return 0, false
	}
	off := loc % kernel.PageSize
	if off%8 != 0 {
		r, ok := b.odd[off]
		return r, ok
	}
	w := off / 8
	return b.slot[w], b.used[w/64]&(1<<(w%64)) != 0
}

// put sets loc's entry.
func (b *bucket) put(loc uint64, r escRef) {
	if off := loc % kernel.PageSize; off%8 != 0 {
		if b.odd == nil {
			b.odd = make(map[uint64]escRef)
		}
		n := len(b.odd)
		b.odd[off] = r
		b.n += len(b.odd) - n
	} else {
		w := off / 8
		b.n += int(^b.used[w/64] >> (w % 64) & 1)
		b.used[w/64] |= 1 << (w % 64)
		b.slot[w] = r
	}
}

// del drops loc's entry, which must be there.
func (b *bucket) del(loc uint64) {
	if off := loc % kernel.PageSize; off%8 != 0 {
		delete(b.odd, off)
	} else {
		b.used[off/512] &^= 1 << (off / 8 % 64)
	}
	b.n--
}

// each calls fn with every entry, base being the page's first address: the
// aligned ones in address order through the occupancy mask, so a sparse page
// costs its entries, then the unaligned ones.
func (b *bucket) each(base uint64, fn func(loc uint64, r escRef)) {
	for w, bits := range b.used {
		for ; bits != 0; bits &= bits - 1 {
			s := w*64 + mathbits.TrailingZeros64(bits)
			fn(base+uint64(s)*8, b.slot[s])
		}
	}
	for off, r := range b.odd {
		fn(base+off, r)
	}
}

// stock is every bucket a table has had: all[:next] handed out, spare the
// ones of those it emptied since. stocks recycles stocks across the
// process's tables, as vm's xcaches does guard caches: a table takes one at
// its first bucket and hands it back at Release, when every bucket in it is
// free again — one Put and no walk, however many pages it held. takeBucket
// hides old entries by clearing the mask, so nothing is zeroed on release.
type stock struct {
	all   []*bucket
	next  int
	spare []*bucket
}

var stocks = sync.Pool{New: func() any { return new(stock) }}

var bucketsMade atomic.Uint64

// BucketsMade counts the page buckets the process has allocated.
func BucketsMade() uint64 { return bucketsMade.Load() }

// End returns one past the allocation's last byte.
func (a *Allocation) End() uint64 { return a.Base + a.Len }

// Covers reports whether addr falls inside the allocation.
func (a *Allocation) Covers(addr uint64) bool { return addr >= a.Base && addr < a.End() }

// EscapeCount returns the number of tracked escapes into this allocation.
func (a *Allocation) EscapeCount() int { return int(a.nEsc.Load()) }

// String names the allocation in diagnostics.
func (a *Allocation) String() string {
	return fmt.Sprintf("[%#x,+%d) with %d escapes", a.Base, a.Len, a.EscapeCount())
}

// AllocationTable is the runtime's hard-state structure (§4.2): a red/black
// tree keyed by allocation base address answering point queries ("which
// allocation covers this address?") and range queries ("which allocations
// overlap this page range?"), the escape map in both directions — each
// allocation's escape set, and a location→(allocation handle, position in
// its set) reverse index bucketed by page (page number → a bucket, existing
// only while it holds an entry), so that "what sits on this page?" is one
// lookup and dropping an escape from its set is a swap with the set's last —
// and, on every tree node, the most escapes into one allocation of its
// subtree, which the Figure 9 pick descends.
//
// Concurrency: the tree is guarded by treeMu (allocations and frees are
// rare next to escapes); everything else by one lock, escMu. Lock order is
// treeMu before escMu. A count change rewrites subtree maxima on tree nodes,
// so whoever edits the escape map holds treeMu too, for reading. One
// process's guest threads run one at a time and a mover stops them first,
// and every process has its own table, so a finer split buys nothing.
// Individual operations are atomic; multi-step sequences (the move
// protocol) get their atomicity from the world stop, as in the paper.
type AllocationTable struct {
	treeMu sync.RWMutex
	tree   rbTree

	escMu  sync.Mutex
	pages  map[uint64]*bucket // nil until the first bucket, as is stock
	stock  *stock
	allocs []*Allocation // by handle: the allocations with escapes, nil at a free handle
	free   []uint32      // free handles
	moving []escMove     // RebaseEscapeLocs' scratch
	drops  []uint64      // RebaseEscapeLocs' scratch
	whole  []handover    // RebaseEscapeLocs' scratch

	// escapes is the total across all allocations.
	escapes int
}

// escMove is one escape RebaseEscapeLocs relocates: where it is, and its
// reverse entry.
type escMove struct {
	loc uint64
	r   escRef
}

// handover is a bucket RebaseEscapeLocs moves whole, and its page.
type handover struct {
	page uint64
	b    *bucket
}

// NewAllocationTable returns an empty table.
func NewAllocationTable() *AllocationTable { return &AllocationTable{} }

// Len returns the number of tracked allocations.
func (t *AllocationTable) Len() int {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	return t.tree.Len()
}

// EscapeCount returns the total number of tracked escapes.
func (t *AllocationTable) EscapeCount() int {
	t.escMu.Lock()
	defer t.escMu.Unlock()
	return t.escapes
}

// setEscape makes a (nil: nobody) the allocation the escape at loc points
// into, keeping reverse index, per-allocation sets, counts and subtree
// maxima in step. Every change to an escape's allocation goes through here.
// Leaving a set moves that set's last location into the freed position and
// rewrites its reverse entry, which may sit in another page's bucket;
// joining one appends. The caller holds escMu and treeMu, the latter at
// least for reading.
func (t *AllocationTable) setEscape(loc uint64, a *Allocation) {
	page := pageOf(loc)
	b := t.pages[page]
	prev, had := b.get(loc)
	var p *Allocation
	if had {
		p = t.allocs[prev.h()]
	}
	if p == a {
		return
	}
	if p != nil {
		last := len(p.escs) - 1
		if i := prev.i(); i != last {
			moved := p.escs[last]
			p.escs[i] = moved
			t.pages[pageOf(moved)].put(moved, prev)
		}
		if p.escs = p.escs[:last]; last == 0 {
			t.allocs[p.h], t.free = nil, append(t.free, p.h)
		}
		p.nEsc.Add(-1)
		t.escapes--
		fixMax(p.node, true)
	}
	if a == nil {
		if b.del(loc); b.n == 0 {
			t.dropBucket(page, b)
		}
		return
	}
	if b == nil {
		b = t.takeBucket(page)
	}
	if len(a.escs) == 0 {
		if n := len(t.free); n > 0 {
			a.h, t.free = t.free[n-1], t.free[:n-1]
		} else {
			a.h, t.allocs = uint32(len(t.allocs)), append(t.allocs, nil)
		}
		t.allocs[a.h] = a
	}
	b.put(loc, ref(a.h, len(a.escs)))
	a.escs = append(a.escs, loc)
	a.nEsc.Add(1)
	t.escapes++
	fixMax(a.node, true)
}

// takeBucket gives page an empty bucket from the stock, a new one when it
// has none left, and returns it. The caller holds escMu.
func (t *AllocationTable) takeBucket(page uint64) *bucket {
	if t.stock == nil {
		t.stock, t.pages = stocks.Get().(*stock), make(map[uint64]*bucket)
	}
	s := t.stock
	var b *bucket
	if n := len(s.spare); n > 0 {
		b, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		if s.next == len(s.all) {
			s.all = append(s.all, new(bucket))
			bucketsMade.Add(1)
		}
		b, s.next = s.all[s.next], s.next+1
	}
	b.odd, b.n, b.used = nil, 0, [len(b.used)]uint64{}
	t.pages[page] = b
	return b
}

// dropBucket takes page's emptied bucket out of the index, into the stock.
// The caller holds escMu.
func (t *AllocationTable) dropBucket(page uint64, b *bucket) {
	delete(t.pages, page)
	t.stock.spare = append(t.stock.spare, b)
}

// Release hands the stock, every bucket in it, to the pool and forgets what
// the table tracked: the table is empty afterwards. A process calls it when
// it ends.
func (t *AllocationTable) Release() {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	if s := t.stock; s != nil {
		s.next, s.spare = 0, s.spare[:0]
		stocks.Put(s)
	}
	t.tree, t.pages, t.stock, t.allocs, t.free, t.escapes = rbTree{}, nil, nil, nil, nil, 0
}

// Insert records a new allocation. Overlapping an existing allocation is
// an error: the tracked program produced inconsistent callbacks.
func (t *AllocationTable) Insert(base, length uint64, static bool) (*Allocation, error) {
	if length == 0 {
		return nil, fmt.Errorf("runtime: zero-length allocation at %#x", base)
	}
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	if a := t.tree.Floor(base); a != nil && a.Covers(base) {
		return nil, fmt.Errorf("runtime: allocation [%#x,%#x) overlaps existing [%#x,%#x)",
			base, base+length, a.Base, a.End())
	}
	if next := t.tree.Ceiling(base); next != nil && next.Base < base+length {
		return nil, fmt.Errorf("runtime: allocation [%#x,%#x) overlaps following [%#x,%#x)",
			base, base+length, next.Base, next.End())
	}
	a := &Allocation{Base: base, Len: length, Static: static}
	t.tree.Insert(&rbNode{key: base, val: a}) // sets a.node
	return a, nil
}

// Remove drops the allocation based exactly at base, unlinking all of its
// escapes. It returns the removed allocation, or nil if none was tracked.
func (t *AllocationTable) Remove(base uint64) *Allocation {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	a := t.tree.Get(base)
	if a == nil {
		return nil
	}
	if a.EscapeCount() > 0 {
		t.escMu.Lock()
		for n := len(a.escs); n > 0; n = len(a.escs) {
			t.setEscape(a.escs[n-1], nil) // the last: nothing to swap
		}
		t.escMu.Unlock()
	}
	t.tree.deleteNode(a.node)
	a.node = nil
	return a
}

// Covering returns the allocation containing addr, or nil. This is the
// core query of both escape resolution and move negotiation.
func (t *AllocationTable) Covering(addr uint64) *Allocation {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	return t.coveringLocked(addr)
}

func (t *AllocationTable) coveringLocked(addr uint64) *Allocation {
	if a := t.tree.Floor(addr); a != nil && a.Covers(addr) {
		return a
	}
	return nil
}

// Overlapping returns the allocations intersecting [lo, hi), in address
// order, in out's storage.
func (t *AllocationTable) Overlapping(lo, hi uint64, out []*Allocation) []*Allocation {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	out = out[:0]
	// An allocation with base < lo can still overlap: check the floor.
	if a := t.tree.Floor(lo); a != nil && a.End() > lo && a.Base < hi {
		out = append(out, a)
	}
	t.tree.Ascend(lo, hi, func(_ uint64, a *Allocation) bool {
		if len(out) > 0 && out[len(out)-1] == a {
			return true
		}
		if a.Base >= hi {
			return false
		}
		out = append(out, a)
		return true
	})
	return out
}

// AddEscape records that memory location loc holds a pointer into the
// allocation covering target. If loc previously escaped a different
// allocation, that stale escape is removed first (the location was
// overwritten). It reports whether the target was a tracked allocation.
func (t *AllocationTable) AddEscape(loc, target uint64) bool {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	a := t.coveringLocked(target)
	t.escMu.Lock()
	defer t.escMu.Unlock()
	t.setEscape(loc, a)
	return a != nil
}

// RemoveEscape forgets the escape at loc (the location was overwritten
// with a non-pointer or destroyed).
func (t *AllocationTable) RemoveEscape(loc uint64) {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	t.setEscape(loc, nil)
}

// EscapeTarget returns the allocation the escape at loc points into, if
// tracked.
func (t *AllocationTable) EscapeTarget(loc uint64) (*Allocation, bool) {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	if r, ok := t.pages[pageOf(loc)].get(loc); ok {
		return t.allocs[r.h()], true
	}
	return nil, false
}

// EscapeLocsOf snapshots the escape locations of every allocation of as
// under one hold of escMu, in as order and each in set order, into locs'
// storage; ends[i] is where allocation i's locations end. The move and swap
// engines iterate the snapshot while patching.
func (t *AllocationTable) EscapeLocsOf(as []*Allocation, locs []uint64, ends []int) ([]uint64, []int) {
	locs, ends = locs[:0], ends[:0]
	t.escMu.Lock()
	defer t.escMu.Unlock()
	for _, a := range as {
		locs = append(locs, a.escs...)
		ends = append(ends, len(locs))
	}
	return locs, ends
}

// Rebase moves every allocation of as by dst-src — one at src+off goes to
// dst+off — under one hold of treeMu, keeping escape sets attached. The
// tracked ones are the contiguous run of the tree's keys from the lowest of
// their bases to the highest, and they land in a key range holding no other
// allocation (a page move's affected set, a single allocation), so the tree
// moves them in one splice (rbTree.shift), whatever their number; the two
// ranges may overlap. caratdebug builds check both conditions. Escape
// locations are NOT rewritten here; the move engine handles location
// rebasing since it knows the moved byte range. An allocation the table no
// longer holds only takes the new base: it is not resurrected.
func (t *AllocationTable) Rebase(as []*Allocation, src, dst uint64) {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	lo, hi, linked := ^uint64(0), uint64(0), 0
	for _, a := range as {
		if a.node != nil {
			lo, hi, linked = min(lo, a.Base), max(hi, a.Base+1), linked+1
		}
		a.Base = a.Base - src + dst
	}
	if linked == 0 {
		return
	}
	moved, clear := t.tree.shift(lo, hi, lo-src+dst)
	if debugInvariants && (moved != linked || !clear) {
		panic(fmt.Sprintf("runtime: Rebase of %d allocations [%#x,%#x] to %#x: %d keys in the run, destination clear %v",
			linked, lo, hi-1, lo-src+dst, moved, clear))
	}
}

// mostEscaped is the Figure 9 pick (rbTree.mostEscaped): the resident
// allocation with the most escapes, the lowest-based of several with as
// many, the lowest-based resident allocation when none has an escape, nil
// when none is resident.
func (t *AllocationTable) mostEscaped() *Allocation {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	return t.tree.mostEscaped()
}

// RebaseEscapeLocs rewrites every tracked escape location within [lo, hi)
// to location-lo+newLo, in place: each escape keeps its allocation, count
// and set position; only its reverse entry changes bucket. An escape already
// recorded at a destination location outside [lo, hi) is stale (the moved
// bytes overwrite it) and is dropped first, in address order. Only the
// buckets of the pages [lo, hi) touches are opened (probed by page number, or
// walked when the range spans more pages than there are buckets). The range
// may be unaligned (MoveAllocationTo, a swap) and overlap its destination, so
// every moving entry leaves the index before any lands. A page the range
// covers whole, moved by a multiple of a page onto a page without a bucket,
// takes its bucket along: one re-key. It returns how many locations moved
// and how many index entries it examined.
func (t *AllocationTable) RebaseEscapeLocs(lo, hi, newLo uint64) (moved, visited int) {
	if lo >= hi {
		return 0, 0
	}
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	shift := newLo - lo
	ms, drops, whole := t.moving[:0], t.drops[:0], t.whole[:0]
	scan := func(page uint64, b *bucket) {
		visited += b.n
		base := page * kernel.PageSize
		if shift%kernel.PageSize == 0 && base >= lo && base+(kernel.PageSize-1) <= hi-1 &&
			t.pages[pageOf(base+shift)] == nil { // nothing there to drop or merge with
			whole, moved = append(whole, handover{page, b}), moved+b.n
			return
		}
		b.each(base, func(loc uint64, r escRef) {
			if loc >= lo && loc < hi {
				ms = append(ms, escMove{loc, r})
				if d := loc + shift; d < lo || d >= hi {
					if _, ok := t.pages[pageOf(d)].get(d); ok {
						drops = append(drops, d)
					}
				}
			}
		})
	}
	first, last := pageOf(lo), pageOf(hi-1)
	if last-first < uint64(len(t.pages)) {
		for page := first; page <= last; page++ {
			if b := t.pages[page]; b != nil {
				scan(page, b)
			}
		}
	} else {
		for page, b := range t.pages {
			if page >= first && page <= last {
				scan(page, b)
			}
		}
	}
	slices.Sort(drops)
	for _, d := range drops {
		t.setEscape(d, nil)
	}
	for _, w := range whole {
		delete(t.pages, w.page)
	}
	for i, m := range ms { // positions are read after the drops, which may shift them
		b := t.pages[pageOf(m.loc)]
		ms[i].r, _ = b.get(m.loc)
		if b.del(m.loc); b.n == 0 {
			t.dropBucket(pageOf(m.loc), b)
		}
	}
	for _, m := range ms {
		d := m.loc + shift
		t.allocs[m.r.h()].escs[m.r.i()] = d
		b := t.pages[pageOf(d)]
		if b == nil {
			b = t.takeBucket(pageOf(d))
		}
		b.put(d, m.r)
	}
	for _, w := range whole {
		base := w.page * kernel.PageSize
		t.pages[pageOf(base+shift)] = w.b
		w.b.each(base, func(loc uint64, r escRef) { t.allocs[r.h()].escs[r.i()] = loc + shift })
	}
	clear(whole) // the scratch must not keep pooled buckets reachable
	t.moving, t.drops, t.whole = ms[:0], drops[:0], whole[:0]
	return moved + len(ms), visited
}

// ForEach visits all allocations in address order. The callback must not
// call table mutators (treeMu is held for reading across the walk).
func (t *AllocationTable) ForEach(fn func(*Allocation) bool) {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.tree.AscendAll(func(_ uint64, a *Allocation) bool { return fn(a) })
}

// MemoryFootprint estimates the bytes the table's data structures occupy,
// for the Figure 6 tracking-memory-overhead experiment: tree nodes plus
// escape-set and reverse-index entries.
func (t *AllocationTable) MemoryFootprint() uint64 {
	const (
		nodeBytes  = 64 // rb node + Allocation header
		entryBytes = 48 // one escape: set entry + reverse-map entry
	)
	t.treeMu.RLock()
	n := uint64(t.tree.Len())
	t.treeMu.RUnlock()
	return n*nodeBytes + uint64(t.EscapeCount())*entryBytes
}

// MaybeCheckInvariants runs CheckInvariants only in caratdebug builds; hot
// test loops call this so the full-table walk doesn't dominate ordinary
// runs (satellite: debug-gated invariant checking).
func (t *AllocationTable) MaybeCheckInvariants() error {
	if !debugInvariants {
		return nil
	}
	return t.CheckInvariants()
}

// CheckInvariants verifies the red-black tree shape, that allocations do
// not overlap, that each allocation's escape count equals the size of its
// set, that the allocations with escapes, and only they, hold handles, that
// the reverse escape index is consistent (every entry's handle and position
// name its own location in an allocation's set, and back: the index holds as
// many entries as the sets and each bucket as many as it counts, none empty),
// and every tree node's subtree maximum (see rbTree.checkInvariants). Tests and
// the property suite call this after mutation storms; MaybeCheckInvariants
// is the debug-gated variant for hot loops.
func (t *AllocationTable) CheckInvariants() error {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	if err := t.tree.checkInvariants(); err != nil {
		return err
	}
	var prev *Allocation
	var bad error
	count, held := 0, 0
	t.tree.AscendAll(func(_ uint64, a *Allocation) bool {
		if prev != nil && prev.End() > a.Base {
			bad = fmt.Errorf("runtime: allocations overlap: [%#x,%#x) then [%#x,%#x)",
				prev.Base, prev.End(), a.Base, a.End())
			return false
		}
		if len(a.escs) > 0 {
			if held++; int(a.h) >= len(t.allocs) || t.allocs[a.h] != a {
				bad = fmt.Errorf("runtime: allocation %#x is not at its handle %d", a.Base, a.h)
				return false
			}
		}
		for i, loc := range a.escs {
			if r, ok := t.pages[pageOf(loc)].get(loc); !ok || r.h() != a.h {
				bad = fmt.Errorf("runtime: reverse index missing escape %#x", loc)
				return false
			} else if r.i() != i {
				bad = fmt.Errorf("runtime: reverse entry %#x holds position %d, its location sits at %d", loc, r.i(), i)
				return false
			}
		}
		if n := len(a.escs); n != a.EscapeCount() {
			bad = fmt.Errorf("runtime: allocation %#x counts %d escapes, its set holds %d",
				a.Base, a.EscapeCount(), n)
			return false
		}
		count += len(a.escs)
		prev = a
		return true
	})
	if bad != nil {
		return bad
	}
	if count != t.escapes {
		return fmt.Errorf("runtime: escape count %d != tracked %d", count, t.escapes)
	}
	if n := len(t.allocs) - len(t.free); n != held {
		return fmt.Errorf("runtime: %d handles held for %d allocations with escapes", n, held)
	}
	rev := 0
	for page, b := range t.pages {
		n := 0
		b.each(0, func(uint64, escRef) { n++ })
		if n == 0 || n != b.n {
			return fmt.Errorf("runtime: the bucket of page %#x counts %d entries, holds %d", page, b.n, n)
		}
		rev += n
	}
	if rev != count {
		return fmt.Errorf("runtime: reverse index size %d != escapes %d", rev, count)
	}
	return nil
}
