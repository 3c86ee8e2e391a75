package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"carat/internal/kernel"
)

// escShards is the number of lock domains of the escape map. Escape
// locations are spread across them by page, so concurrent trackers (the
// multi-process pressure workloads) contend on different locks while
// everything located on one page — what a move of that page has to find —
// sits behind one of them; 16 is comfortably above the process counts those
// harnesses run.
const escShards = 16

// pageOf numbers the page holding loc; shardOfPage and shardOf name the lock
// domain a page, and a location on it, belong to.
func pageOf(loc uint64) uint64    { return loc / kernel.PageSize }
func shardOfPage(page uint64) int { return int(page & (escShards - 1)) }
func shardOf(loc uint64) int      { return shardOfPage(pageOf(loc)) }

// memoOf picks the last-allocation memo an escape at loc consults. The low 4
// bits below the 16-byte allocator alignment are dropped so consecutive
// pointer slots use different memos.
func memoOf(loc uint64) int { return int((loc >> 4) & (escShards - 1)) }

// Allocation is one tracked memory block: a static allocation (global,
// stack region) or a dynamic one (malloc, alloca). The escape set — the
// Allocation to Escape Map entry of §4.2 "Tracking" — is stored sharded by
// escape location: escs[s] holds this allocation's escapes located on the
// pages of shard s, and is guarded by that shard's lock. nEsc is the size of
// the whole set, so asking for it touches no map.
type Allocation struct {
	Base uint64
	Len  uint64
	// Static marks load-time allocations (globals, stacks) that free()
	// must never release.
	Static bool

	escs [escShards]map[uint64]struct{}
	nEsc atomic.Int64
}

// End returns one past the allocation's last byte.
func (a *Allocation) End() uint64 { return a.Base + a.Len }

// Covers reports whether addr falls inside the allocation.
func (a *Allocation) Covers(addr uint64) bool { return addr >= a.Base && addr < a.End() }

// EscapeCount returns the number of tracked escapes into this allocation.
func (a *Allocation) EscapeCount() int { return int(a.nEsc.Load()) }

// escShard is one lock domain of the escape map: the location→allocation
// reverse index of the pages hashing here, bucketed by page (page number →
// the escapes located on that page), so that "what sits on this page?" is
// one lookup and not a walk of every escape of the process. A bucket exists
// only while it holds an entry.
type escShard struct {
	mu    sync.Mutex
	pages map[uint64]map[uint64]*Allocation
}

// AllocationTable is the runtime's hard-state structure (§4.2): a red/black
// tree keyed by allocation base address answering point queries ("which
// allocation covers this address?") and range queries ("which allocations
// overlap this page range?"), plus the page-bucketed location→allocation
// reverse index for escapes.
//
// Concurrency: the tree is guarded by treeMu (allocations and frees are
// rare next to escapes); each shard's page buckets and the escs sub-maps of
// every allocation for that shard are guarded by the shard lock. Lock order
// is treeMu before shard locks, shard locks in ascending index order.
// Individual operations are atomic; multi-step sequences (the move
// protocol) get their atomicity from the world stop, as in the paper.
type AllocationTable struct {
	treeMu sync.RWMutex
	tree   rbTree

	shards [escShards]escShard

	// memo holds the allocations the last escapes resolved to, exploiting
	// TrackEscape's locality (consecutive escapes overwhelmingly target the
	// same allocation, so a memo short-circuits the rbtree descent). A memo
	// serves locations of every page, hence of every shard: it is read and
	// written atomically, under treeMu held for reading.
	memo [escShards]atomic.Pointer[Allocation]

	// escapeCount tracks the total escapes across all allocations.
	escapeCount atomic.Int64

	// memoHits/memoMisses count memo outcomes for the
	// carat.runtime.table.* metrics.
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64
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
func (t *AllocationTable) EscapeCount() int { return int(t.escapeCount.Load()) }

// MemoStats returns the memo hit/miss counts.
func (t *AllocationTable) MemoStats() (hits, misses uint64) {
	return t.memoHits.Load(), t.memoMisses.Load()
}

// lockShards takes every shard lock in order; the caller must already hold
// treeMu (either mode) or be otherwise ordered before shard locks.
func (t *AllocationTable) lockShards() {
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
}

func (t *AllocationTable) unlockShards() {
	for i := range t.shards {
		t.shards[i].mu.Unlock()
	}
}

// setEscape makes a (nil: nobody) the allocation the escape at loc points
// into, keeping reverse index, per-allocation sets and counts in step. Every
// change to the escape map goes through here. The caller holds loc's shard
// lock.
func (t *AllocationTable) setEscape(loc uint64, a *Allocation) {
	s, page := shardOf(loc), pageOf(loc)
	sh := &t.shards[s]
	bucket := sh.pages[page]
	prev := bucket[loc]
	if prev == a {
		return
	}
	delta := int64(0)
	if prev != nil {
		delete(prev.escs[s], loc)
		prev.nEsc.Add(-1)
		delta--
	}
	if a == nil {
		delete(bucket, loc)
		if len(bucket) == 0 {
			delete(sh.pages, page)
		}
	} else {
		if bucket == nil {
			if sh.pages == nil {
				sh.pages = make(map[uint64]map[uint64]*Allocation)
			}
			bucket = make(map[uint64]*Allocation)
			sh.pages[page] = bucket
		}
		bucket[loc] = a
		if a.escs[s] == nil {
			a.escs[s] = make(map[uint64]struct{})
		}
		a.escs[s][loc] = struct{}{}
		a.nEsc.Add(1)
		delta++
	}
	if delta != 0 {
		t.escapeCount.Add(delta)
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
	if _, a, ok := t.tree.Floor(base); ok && a.Covers(base) {
		return nil, fmt.Errorf("runtime: allocation [%#x,%#x) overlaps existing [%#x,%#x)",
			base, base+length, a.Base, a.End())
	}
	if _, next, ok := t.tree.Ceiling(base); ok && next.Base < base+length {
		return nil, fmt.Errorf("runtime: allocation [%#x,%#x) overlaps following [%#x,%#x)",
			base, base+length, next.Base, next.End())
	}
	a := &Allocation{Base: base, Len: length, Static: static}
	t.tree.Insert(base, a)
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
	for s := range t.shards {
		if a.nEsc.Load() == 0 {
			break // nothing (left) to unlink, no lock to take
		}
		sh := &t.shards[s]
		sh.mu.Lock()
		for loc := range a.escs[s] {
			t.setEscape(loc, nil)
		}
		sh.mu.Unlock()
	}
	for i := range t.memo {
		// A memo must never outlive its allocation: a stale one would
		// report coverage for freed (and later reused) space. (treeMu is
		// held for writing: nobody stores a memo in between.)
		if t.memo[i].Load() == a {
			t.memo[i].Store(nil)
		}
	}
	t.tree.Delete(base)
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
	_, a, ok := t.tree.Floor(addr)
	if !ok || !a.Covers(addr) {
		return nil
	}
	return a
}

// Overlapping returns the allocations intersecting [lo, hi), in address
// order.
func (t *AllocationTable) Overlapping(lo, hi uint64) []*Allocation {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	var out []*Allocation
	// An allocation with base < lo can still overlap: check the floor.
	if _, a, ok := t.tree.Floor(lo); ok && a.End() > lo && a.Base < hi {
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
	sh := &t.shards[shardOf(loc)]
	memo := &t.memo[memoOf(loc)]
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a := memo.Load()
	if a != nil && a.Covers(target) {
		t.memoHits.Add(1)
	} else {
		a = t.coveringLocked(target)
		t.memoMisses.Add(1)
		if a != nil {
			memo.Store(a)
		}
	}
	t.setEscape(loc, a)
	return a != nil
}

// RemoveEscape forgets the escape at loc (the location was overwritten
// with a non-pointer or destroyed).
func (t *AllocationTable) RemoveEscape(loc uint64) {
	t.relinkEscape(loc, nil)
}

// EscapeTarget returns the allocation the escape at loc points into, if
// tracked.
func (t *AllocationTable) EscapeTarget(loc uint64) (*Allocation, bool) {
	sh := &t.shards[shardOf(loc)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	a, ok := sh.pages[pageOf(loc)][loc]
	return a, ok
}

// EscapeLocsOf snapshots allocation a's escape locations under the shard
// locks; the move and swap engines iterate the snapshot while patching.
func (t *AllocationTable) EscapeLocsOf(a *Allocation) []uint64 {
	n := a.EscapeCount()
	if n == 0 {
		return nil // most of what shares a moved page with the target: no lock taken
	}
	out := make([]uint64, 0, n)
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for loc := range a.escs[s] {
			out = append(out, loc)
		}
		sh.mu.Unlock()
	}
	return out
}

// relinkEscape records that loc escapes into allocation a (nil: into
// nothing), maintaining the reverse index and counts; used when swap-in
// reconstructs an allocation's escape set.
func (t *AllocationTable) relinkEscape(loc uint64, a *Allocation) {
	sh := &t.shards[shardOf(loc)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t.setEscape(loc, a)
}

// Rebase moves allocation a (which must be tracked) so its base becomes
// newBase, keeping escape sets attached. Escape locations are NOT
// rewritten here; the move engine handles location rebasing since it knows
// the moved byte range. Memos stay valid: they reference a itself, and
// Covers reads the live Base/Len.
func (t *AllocationTable) Rebase(a *Allocation, newBase uint64) {
	t.treeMu.Lock()
	defer t.treeMu.Unlock()
	t.tree.Delete(a.Base)
	a.Base = newBase
	t.tree.Insert(a.Base, a)
}

// RebaseEscapeLocs rewrites every tracked escape location within
// [lo, hi) to location-lo+newLo, in both the per-allocation escape sets
// and the reverse index; an escape already recorded at a destination
// location is stale (the moved bytes overwrite it) and is dropped. Only the
// buckets of the pages [lo, hi) touches are opened — found by probing each
// page number, or, when the range spans more pages than the index holds
// buckets, by walking the buckets. The range need not be page-aligned
// (MoveAllocationTo) nor the locations word-aligned, so every opened
// bucket is filtered. A rewritten location may land in a different shard,
// so all shard locks are held. It returns how many locations moved and how
// many index entries it examined to find them. The move engine calls this
// when the moved byte range itself contained pointers.
func (t *AllocationTable) RebaseEscapeLocs(lo, hi, newLo uint64) (moved, visited int) {
	if lo >= hi {
		return 0, 0
	}
	type entry struct {
		loc uint64
		a   *Allocation
	}
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.lockShards()
	defer t.unlockShards()
	var ms []entry
	scan := func(bucket map[uint64]*Allocation) {
		visited += len(bucket)
		for loc, a := range bucket {
			if loc >= lo && loc < hi {
				ms = append(ms, entry{loc, a})
			}
		}
	}
	first, last := pageOf(lo), pageOf(hi-1)
	buckets := 0
	for s := range t.shards {
		buckets += len(t.shards[s].pages)
	}
	if last-first < uint64(buckets) {
		for page := first; page <= last; page++ {
			scan(t.shards[shardOfPage(page)].pages[page])
		}
	} else {
		for s := range t.shards {
			for page, bucket := range t.shards[s].pages {
				if page >= first && page <= last {
					scan(bucket)
				}
			}
		}
	}
	for _, m := range ms {
		t.setEscape(m.loc, nil)
	}
	for _, m := range ms {
		t.setEscape(m.loc-lo+newLo, m.a)
	}
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
// sets, that the reverse escape index is consistent, that every escape
// location lives in the shard and the bucket of its own page, and that no
// empty bucket survives. Tests and the property suite call this after
// mutation storms; MaybeCheckInvariants is the debug-gated variant for hot
// loops.
func (t *AllocationTable) CheckInvariants() error {
	t.treeMu.RLock()
	defer t.treeMu.RUnlock()
	t.lockShards()
	defer t.unlockShards()
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
		n := 0
		for s := range a.escs {
			n += len(a.escs[s])
			for loc := range a.escs[s] {
				if shardOf(loc) != s {
					bad = fmt.Errorf("runtime: escape %#x stored in shard %d, its page belongs to %d",
						loc, s, shardOf(loc))
					return false
				}
				if t.shards[s].pages[pageOf(loc)][loc] != a {
					bad = fmt.Errorf("runtime: reverse index missing escape %#x", loc)
					return false
				}
			}
		}
		if n != a.EscapeCount() {
			bad = fmt.Errorf("runtime: allocation %#x counts %d escapes, its sets hold %d",
				a.Base, a.EscapeCount(), n)
			return false
		}
		count += n
		prev = a
		return true
	})
	if bad != nil {
		return bad
	}
	if count != int(t.escapeCount.Load()) {
		return fmt.Errorf("runtime: escape count %d != tracked %d", count, t.escapeCount.Load())
	}
	rev := 0
	for s := range t.shards {
		for page, bucket := range t.shards[s].pages {
			if len(bucket) == 0 {
				return fmt.Errorf("runtime: empty bucket left for page %#x", page)
			}
			if shardOfPage(page) != s {
				return fmt.Errorf("runtime: page %#x bucketed in shard %d, belongs to %d",
					page, s, shardOfPage(page))
			}
			for loc, a := range bucket {
				if pageOf(loc) != page {
					return fmt.Errorf("runtime: reverse entry %#x in the bucket of page %#x", loc, page)
				}
				if _, ok := a.escs[s][loc]; !ok {
					return fmt.Errorf("runtime: reverse entry %#x missing from allocation set", loc)
				}
			}
			rev += len(bucket)
		}
	}
	if rev != count {
		return fmt.Errorf("runtime: reverse index size %d != escapes %d", rev, count)
	}
	return nil
}
