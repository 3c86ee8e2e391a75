package runtime

import (
	"fmt"
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

	// node is the tree node holding the allocation, nil once it is removed.
	node *rbNode

	escs []uint64
	nEsc atomic.Int64
}

// escRef is a reverse-index entry: the allocation an escape points into, and
// the escape's position in that allocation's set.
type escRef struct {
	a *Allocation
	i int
}

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
// allocation's escape set, and a location→(allocation, position in its set)
// reverse index bucketed by page (page number → the escapes located on that
// page, a bucket existing only while it holds an entry), so that "what sits
// on this page?" is one lookup and dropping an escape from its set is a
// swap with the set's last — and, on every tree node, the most escapes into
// one allocation of its subtree, which the Figure 9 pick descends. An
// emptied bucket is kept, up to maxSpareBuckets of them, for the next page
// that needs one: a page move empties its source page's bucket and fills its
// destination's, which takes the same map.
//
// Concurrency: the tree is guarded by treeMu (allocations and frees are
// rare next to escapes); everything else by one lock, escMu. Lock order is
// treeMu before escMu. A count change rewrites subtree maxima on tree
// nodes, so whoever edits the escape map holds treeMu too, for reading. One
// process's guest threads run one at a time and a mover stops them first,
// and every process has its own table, so a finer split buys nothing. Individual operations are atomic; multi-step sequences
// (the move protocol) get their atomicity from the world stop, as in the
// paper.
type AllocationTable struct {
	treeMu sync.RWMutex
	tree   rbTree

	escMu  sync.Mutex
	pages  map[uint64]map[uint64]escRef
	spare  []map[uint64]escRef
	moving []escMove // RebaseEscapeLocs' scratch
	drops  []uint64  // RebaseEscapeLocs' scratch

	// escapes is the total across all allocations.
	escapes int
}

// maxSpareBuckets bounds the emptied buckets a table keeps for reuse: a
// move's range spans a few pages, and a bucket is at most a page of entries.
const maxSpareBuckets = 8

// escMove is one escape RebaseEscapeLocs relocates: where it is, and its
// reverse entry.
type escMove struct {
	loc uint64
	r   escRef
}

// NewAllocationTable returns an empty table.
func NewAllocationTable() *AllocationTable {
	return &AllocationTable{pages: make(map[uint64]map[uint64]escRef)}
}

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
	bucket := t.pages[page]
	prev := bucket[loc]
	if prev.a == a {
		return
	}
	if p := prev.a; p != nil {
		last := len(p.escs) - 1
		if prev.i != last {
			moved := p.escs[last]
			p.escs[prev.i] = moved
			t.pages[pageOf(moved)][moved] = prev
		}
		p.escs = p.escs[:last]
		p.nEsc.Add(-1)
		t.escapes--
		fixMax(p.node, true)
	}
	if a == nil {
		if delete(bucket, loc); len(bucket) == 0 {
			t.dropBucket(page, bucket)
		}
		return
	}
	t.index(page, bucket, loc, escRef{a, len(a.escs)})
	a.escs = append(a.escs, loc)
	a.nEsc.Add(1)
	t.escapes++
	fixMax(a.node, true)
}

// index sets loc's reverse entry in bucket, page's bucket, taking a spare
// one (or a new one) when the page has none, and returns the bucket. The
// caller holds escMu.
func (t *AllocationTable) index(page uint64, bucket map[uint64]escRef, loc uint64, r escRef) map[uint64]escRef {
	if bucket == nil {
		if n := len(t.spare); n > 0 {
			bucket, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			bucket = make(map[uint64]escRef)
		}
		t.pages[page] = bucket
	}
	bucket[loc] = r
	return bucket
}

// dropBucket takes page's bucket out of the index, keeping it, emptied, as a
// spare. The caller holds escMu.
func (t *AllocationTable) dropBucket(page uint64, bucket map[uint64]escRef) {
	delete(t.pages, page)
	if len(t.spare) < maxSpareBuckets {
		clear(bucket) // drops the entries, or the deletions' tombstones
		t.spare = append(t.spare, bucket)
	}
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
	t.escMu.Lock()
	defer t.escMu.Unlock()
	r, ok := t.pages[pageOf(loc)][loc]
	return r.a, ok
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

// RebaseEscapeLocs rewrites every tracked escape location within
// [lo, hi) to location-lo+newLo, in place: each escape keeps its
// allocation, its count and its position in that allocation's set; only its
// reverse entry changes bucket. An escape already recorded at a destination
// location outside [lo, hi) is stale (the moved bytes overwrite it) and is
// dropped first, in address order, so the sets it leaves do not depend on
// bucket iteration. Only the buckets of the pages [lo, hi) touches are
// opened — found by probing each page number, or, when the range spans more
// pages than the index holds buckets, by walking the buckets. The range need
// not be page-aligned (MoveAllocationTo, a swap) nor the locations
// word-aligned, and it may overlap its destination, so every opened bucket is
// filtered, and every moving entry leaves the index before any lands — a
// bucket all of whose entries move leaves whole. It returns how many
// locations moved and how many index entries it examined to find them. The
// move engine calls this when the moved byte range itself contained
// pointers.
func (t *AllocationTable) RebaseEscapeLocs(lo, hi, newLo uint64) (moved, visited int) {
	if lo >= hi {
		return 0, 0
	}
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.escMu.Lock()
	defer t.escMu.Unlock()
	ms, drops := t.moving[:0], t.drops[:0]
	dPage, dBucket := ^uint64(0), map[uint64]escRef(nil) // a destination page's, looked up once
	scan := func(src map[uint64]escRef) {
		visited += len(src)
		for loc, r := range src {
			if loc >= lo && loc < hi {
				ms = append(ms, escMove{loc, r})
				if d := loc - lo + newLo; d < lo || d >= hi {
					if p := pageOf(d); p != dPage {
						dPage, dBucket = p, t.pages[p]
					}
					if _, stale := dBucket[d]; stale {
						drops = append(drops, d)
					}
				}
			}
		}
	}
	first, last := pageOf(lo), pageOf(hi-1)
	if last-first < uint64(len(t.pages)) {
		for page := first; page <= last; page++ {
			scan(t.pages[page])
		}
	} else {
		for page, bucket := range t.pages {
			if page >= first && page <= last {
				scan(bucket)
			}
		}
	}
	if len(drops) > 0 {
		slices.Sort(drops)
		for _, d := range drops {
			t.setEscape(d, nil)
		}
		for i, m := range ms { // a drop's swap-delete may have shifted a moving escape
			ms[i].r = t.pages[pageOf(m.loc)][m.loc]
		}
	}
	for i, j := 0, 0; i < len(ms); i = j { // ms holds each bucket's movers in one run
		page := pageOf(ms[i].loc)
		for j = i + 1; j < len(ms) && pageOf(ms[j].loc) == page; j++ {
		}
		if src := t.pages[page]; j-i == len(src) {
			t.dropBucket(page, src)
		} else {
			for _, m := range ms[i:j] {
				delete(src, m.loc)
			}
		}
	}
	dPage, dBucket = ^uint64(0), nil
	for _, m := range ms {
		d := m.loc - lo + newLo
		m.r.a.escs[m.r.i] = d
		if p := pageOf(d); p != dPage {
			dPage, dBucket = p, t.pages[p]
		}
		dBucket = t.index(dPage, dBucket, d, m.r)
	}
	clear(ms) // the scratch must not keep freed allocations reachable
	t.moving, t.drops = ms[:0], drops[:0]
	return len(ms), visited
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
// set, that the reverse escape index is consistent (every entry's position
// names its own location in its allocation's set, and back), that every escape
// location lives in the bucket of its own page, that no empty bucket
// survives, that every spare bucket is empty, and every tree node's subtree
// maximum (see rbTree.checkInvariants). Tests and the
// property suite call this after mutation storms; MaybeCheckInvariants is
// the debug-gated variant for hot loops.
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
	t.tree.AscendAll(func(_ uint64, a *Allocation) bool {
		if prev != nil && prev.End() > a.Base {
			bad = fmt.Errorf("runtime: allocations overlap: [%#x,%#x) then [%#x,%#x)",
				prev.Base, prev.End(), a.Base, a.End())
			return false
		}
		for i, loc := range a.escs {
			if r := t.pages[pageOf(loc)][loc]; r.a != a {
				bad = fmt.Errorf("runtime: reverse index missing escape %#x", loc)
				return false
			} else if r.i != i {
				bad = fmt.Errorf("runtime: reverse entry %#x holds position %d, its location sits at %d", loc, r.i, i)
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
	rev := 0
	for page, bucket := range t.pages {
		if len(bucket) == 0 {
			return fmt.Errorf("runtime: empty bucket left for page %#x", page)
		}
		for loc := range bucket {
			if pageOf(loc) != page {
				return fmt.Errorf("runtime: reverse entry %#x in the bucket of page %#x", loc, page)
			}
		}
		rev += len(bucket)
	}
	if rev != count {
		return fmt.Errorf("runtime: reverse index size %d != escapes %d", rev, count)
	}
	for _, bucket := range t.spare {
		if len(bucket) != 0 { // so serves no page: a page's bucket is never empty
			return fmt.Errorf("runtime: a spare bucket holds %d entries", len(bucket))
		}
	}
	return nil
}
