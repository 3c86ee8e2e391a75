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
// stack region) or a dynamic one (malloc, alloca), and its own node in the
// table's tree, keyed by Base. escs is its escape set — the Allocation to
// Escape Map entry of §4.2 "Tracking" — each location once, in an order
// fixed by the escape history, guarded by the table's escMu; nEsc is its
// length, so asking for it takes no lock.
//
// An Allocation is a slot of its table's slab (see stock), so a *Allocation
// the table hands out is valid until the slot's next Insert — Remove frees
// the slot for it — or until the table's Release.
type Allocation struct {
	Base uint64
	Len  uint64
	// Static marks load-time allocations (globals, stacks) that free()
	// must never release.
	Static bool

	// linked is true while the allocation is in the table, col is its tree
	// colour and h its slot, what the reverse index names it by: all three
	// fit in Static's padding.
	linked bool
	col    color
	h      uint32

	// The tree links (parent also links a free slot to the next), and max,
	// the most escapes into one resident allocation of the subtree: written
	// under treeMu, or max under escMu with treeMu held for reading.
	left, right, parent *Allocation
	max                 int

	escs []uint64
	nEsc atomic.Int64
}

// escRef is a reverse-index entry: the slot of the allocation an escape
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

// chunkSlots is the number of allocation slots in one slab chunk.
const chunkSlots = 256

// maxPooledPages is the most pages a released page index may have held and
// still go to the next table.
const maxPooledPages = 64

// chunk is a run of allocation slots. A chunk never moves, so neither does
// an allocation.
type chunk [chunkSlots]Allocation

// stock is everything a table has had: its page index and every bucket —
// all[:next] handed out, spare the ones of those it emptied since — and the
// allocation slab, whose slot h is chunks[h/chunkSlots][h%chunkSlots]. The
// stocks pool recycles stocks across the process's tables: a table takes
// one at its first allocation or bucket and hands it back at Release, when
// everything in it is free again — one handback and no walk, however many
// pages and allocations it held. takeBucket hides old entries by clearing
// the mask and Insert overwrites its slot, so only the index is cleared.
// A map keeps the capacity of the most entries it ever held, and clearing
// or walking it costs that, so an index that held more than maxPooledPages
// is dropped rather than handed on: a table that large makes its own.
type stock struct {
	pages  map[uint64]*bucket
	all    []*bucket
	next   int
	spare  []*bucket
	chunks []*chunk
}

// stocks holds released stocks: any goroutine takes any of them, so a
// process that runs one table at a time fills one stock.
var stocks Pool[stock]

var bucketsMade, chunksMade atomic.Uint64

// BucketsMade counts the page buckets the process has allocated.
func BucketsMade() uint64 { return bucketsMade.Load() }

// ChunksMade counts the allocation slab chunks the process has allocated.
func ChunksMade() uint64 { return chunksMade.Load() }

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
// tree of allocations keyed by base address answering point queries ("which
// allocation covers this address?") and range queries ("which allocations
// overlap this page range?"), the escape map in both directions — each
// allocation's escape set, and a location→(allocation slot, position in
// its set) reverse index bucketed by page (page number → a bucket, existing
// only while it holds an entry), so that "what sits on this page?" is one
// lookup and dropping an escape from its set is a swap with the set's last —
// and, on every tree node, the most escapes into one allocation of its
// subtree, which the Figure 9 pick descends. The allocations are the
// stock's slab slots 0 to slots-1, the removed ones among them on the freed
// list, which Insert takes from first, so the slab grows with the most
// allocations the table held at once, not with churn.
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
	slots  uint32      // slab slots handed out
	freed  *Allocation // removed slots, the latest first, linked by parent
	frozen atomic.Bool // a move holds *Allocation pointers: no Insert (checked in caratdebug builds)

	escMu  sync.Mutex
	pages  map[uint64]*bucket // the stock's; nil until the first bucket
	stock  *stock
	moving []escMove  // RebaseEscapeLocs' scratch
	drops  []uint64   // RebaseEscapeLocs' scratch
	whole  []handover // RebaseEscapeLocs' scratch

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
		p = t.slot(prev.h())
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
		p.escs = p.escs[:last]
		p.nEsc.Add(-1)
		t.escapes--
		fixMax(p, true)
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
	b.put(loc, ref(a.h, len(a.escs)))
	a.escs = append(a.escs, loc)
	a.nEsc.Add(1)
	t.escapes++
	fixMax(a, true)
}

// slot returns the allocation in slot h. The caller holds treeMu, or escMu.
func (t *AllocationTable) slot(h uint32) *Allocation {
	return &t.stock.chunks[h/chunkSlots][h%chunkSlots]
}

// useStock takes the latest released stock, a new one if there is none, for
// the table if it has none. The caller holds treeMu for writing, or escMu
// and treeMu for reading.
func (t *AllocationTable) useStock() {
	if t.stock != nil {
		return
	}
	if t.stock = stocks.Get(); t.stock == nil {
		t.stock = new(stock)
	}
	t.pages = t.stock.pages
}

// takeBucket gives page an empty bucket from the stock, a new one when it
// has none left, and returns it. The caller holds escMu.
func (t *AllocationTable) takeBucket(page uint64) *bucket {
	t.useStock()
	s := t.stock
	if t.pages == nil {
		t.pages = make(map[uint64]*bucket)
		s.pages = t.pages
	}
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

// Release hands the stock, every bucket and slab chunk in it, back for the
// next table and forgets what the table tracked: the table is empty
// afterwards, and every *Allocation it handed out is void. A process calls
// it when it ends.
func (t *AllocationTable) Release() {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	if s := t.stock; s != nil {
		if s.next > maxPooledPages {
			s.pages = nil
		} else {
			clear(s.pages)
		}
		s.next, s.spare = 0, s.spare[:0]
		stocks.Put(s)
	}
	t.tree, t.slots, t.freed, t.pages, t.stock, t.escapes = rbTree{}, 0, nil, nil, nil, 0
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
	if debugInvariants && t.frozen.Load() {
		panic(fmt.Sprintf("runtime: Insert of %#x during a move, which may hold the slot it reuses", base))
	}
	a := t.takeSlot()
	a.Base, a.Len, a.Static, a.linked, a.escs = base, length, static, true, a.escs[:0]
	a.nEsc.Store(0)
	t.tree.Insert(a) // sets the links, colour and max
	return a, nil
}

// takeSlot hands out the latest removed slot, else the slab's next unused
// one, adding a chunk when every slot is taken. The caller holds treeMu for
// writing.
func (t *AllocationTable) takeSlot() *Allocation {
	if a := t.freed; a != nil {
		t.freed = a.parent
		return a
	}
	t.useStock()
	s, h := t.stock, t.slots
	if int(h/chunkSlots) == len(s.chunks) {
		s.chunks = append(s.chunks, new(chunk))
		chunksMade.Add(1)
	}
	t.slots++
	a := t.slot(h)
	a.h = h
	return a
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
	t.tree.deleteNode(a)
	a.linked, a.parent, t.freed = false, t.freed, a
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
	t.tree.Ascend(lo, hi, func(a *Allocation) bool {
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
		return t.slot(r.h()), true
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
// moves them, bases and all, in one splice (rbTree.shift), whatever their
// number; the two ranges may overlap. caratdebug builds check both
// conditions. Escape locations are NOT rewritten here; the move engine
// handles location rebasing since it knows the moved byte range. An
// allocation the table no longer holds only takes the new base: it is not
// resurrected (its slot is not reused before the move ends; see frozen).
func (t *AllocationTable) Rebase(as []*Allocation, src, dst uint64) {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	lo, hi, linked := ^uint64(0), uint64(0), 0
	for _, a := range as {
		if a.linked {
			lo, hi, linked = min(lo, a.Base), max(hi, a.Base+1), linked+1
		} else {
			a.Base = a.Base - src + dst
		}
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
		t.slot(m.r.h()).escs[m.r.i()] = d
		b := t.pages[pageOf(d)]
		if b == nil {
			b = t.takeBucket(pageOf(d))
		}
		b.put(d, m.r)
	}
	for _, w := range whole {
		base := w.page * kernel.PageSize
		t.pages[pageOf(base+shift)] = w.b
		w.b.each(base, func(loc uint64, r escRef) { t.slot(r.h()).escs[r.i()] = loc + shift })
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
	t.tree.AscendAll(fn)
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
// set, that every slot handed out is either in the tree, at its own slot, or
// on the free list, that the reverse escape index is consistent (every
// entry's slot and position
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
	count := 0
	t.tree.AscendAll(func(a *Allocation) bool {
		if prev != nil && prev.End() > a.Base {
			bad = fmt.Errorf("runtime: allocations overlap: [%#x,%#x) then [%#x,%#x)",
				prev.Base, prev.End(), a.Base, a.End())
			return false
		}
		if !a.linked || a.h >= t.slots || t.slot(a.h) != a {
			bad = fmt.Errorf("runtime: allocation %#x is not at its slot %d (linked %v)", a.Base, a.h, a.linked)
			return false
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
	free := 0
	for a := t.freed; a != nil && free <= int(t.slots); a = a.parent {
		if a.linked {
			return fmt.Errorf("runtime: allocation %#x is in the tree and on the free list", a.Base)
		}
		free++
	}
	if free+t.tree.Len() != int(t.slots) {
		return fmt.Errorf("runtime: %d slots handed out, %d allocations and %d free", t.slots, t.tree.Len(), free)
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
