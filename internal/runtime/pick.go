package runtime

import "carat/internal/kernel"

// pickIndex answers the Figure 9 question — which allocation has the most
// escapes? — without walking the table: a max-heap of (escapes, base,
// allocation) entries ordered by most escapes, then lowest base, which is the
// walk's rule. Entries are never updated in place. An allocation whose key
// changes (setEscape, Rebase) goes on the dirty list once; the next pick
// pushes the current key of each dirty allocation and pops the stale tops.
// The index is built by one walk at the first pick, so a table nobody picks
// from pays one branch per count change. Guarded by the table's escMu; a
// pick also holds treeMu for reading, which keeps every Base it reads still.
//
// Invariant (CheckInvariants): at rest, every allocation with escapes that
// is not on the dirty list has an entry with its current key, and pushed
// holds that key. The top entry whose key is still current is therefore the
// answer; with none, no allocation holds an escape and the answer is the
// lowest-based one.
type pickIndex struct {
	live  bool
	heap  []pickEntry
	dirty []*Allocation
	// size is the table's allocation count at the last pick. A dirty list
	// longer than that costs more to drain than a walk: the index is
	// dropped and the next pick rebuilds it.
	size int
}

// pickKey is what the pick orders by. n == 0 means "no entry": an allocation
// without escapes never has one, nor does a swapped-out one.
type pickKey struct {
	n    int
	base uint64
}

type pickEntry struct {
	pickKey
	a *Allocation
}

func keyOf(a *Allocation) pickKey {
	if kernel.IsPoison(a.Base) {
		return pickKey{}
	}
	return pickKey{a.EscapeCount(), a.Base}
}

// above reports whether k is picked before j.
func (k pickKey) above(j pickKey) bool { return k.n > j.n || k.n == j.n && k.base < j.base }

// touch puts a, whose key just changed, on the dirty list once.
func (p *pickIndex) touch(a *Allocation) {
	if a.dirty {
		return
	}
	a.dirty = true
	p.dirty = append(p.dirty, a)
	if len(p.dirty) > p.size {
		p.drop()
	}
}

// drop empties the index and stops the marking; the next pick rebuilds it.
func (p *pickIndex) drop() {
	p.clearDirty()
	clear(p.heap)
	p.heap = p.heap[:0]
	p.live = false
}

func (p *pickIndex) clearDirty() {
	for _, a := range p.dirty {
		a.dirty = false
	}
	clear(p.dirty) // the list must not keep freed allocations reachable
	p.dirty = p.dirty[:0]
}

// pick returns the resident allocation with the most escapes, the
// lowest-based of several with as many; with no escape into one, the
// lowest-based resident allocation; nil when none is resident. Poison bases
// sort above every resident one. The heap is rebuilt by a walk when it would hold
// more than twice as many entries as the table has allocations: a rebuild
// leaves at most one per allocation, so at least as many pushes as there are
// allocations pay for each walk.
func (p *pickIndex) pick(tree *rbTree) *Allocation {
	n := tree.Len()
	if !p.live || len(p.heap)+len(p.dirty) > 2*n {
		p.rebuild(tree)
	} else {
		for _, a := range p.dirty {
			if k := keyOf(a); k.n == 0 {
				a.pushed = pickKey{} // a count back from 0 must push again
			} else if k != a.pushed {
				a.pushed = k
				p.push(pickEntry{k, a})
			}
		}
		p.clearDirty()
	}
	p.size = n
	for len(p.heap) > 0 && keyOf(p.heap[0].a) != p.heap[0].pickKey {
		p.pop()
	}
	if len(p.heap) > 0 {
		return p.heap[0].a
	}
	if a := tree.Ceiling(0); a != nil && !kernel.IsPoison(a.Base) {
		return a
	}
	return nil
}

// rebuild makes the index from one walk of the table.
func (p *pickIndex) rebuild(tree *rbTree) {
	p.drop()
	tree.AscendAll(func(_ uint64, a *Allocation) bool {
		k := keyOf(a)
		if k.n == 0 {
			k = pickKey{}
		} else {
			p.heap = append(p.heap, pickEntry{k, a})
		}
		a.pushed = k
		return true
	})
	for i := len(p.heap)/2 - 1; i >= 0; i-- {
		p.down(i)
	}
	p.live = true
}

func (p *pickIndex) push(e pickEntry) {
	p.heap = append(p.heap, e)
	h, i := p.heap, len(p.heap)-1
	for i > 0 {
		up := (i - 1) / 2
		if !e.above(h[up].pickKey) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = e
}

func (p *pickIndex) pop() {
	last := len(p.heap) - 1
	p.heap[0] = p.heap[last]
	p.heap[last] = pickEntry{}
	p.heap = p.heap[:last]
	p.down(0)
}

func (p *pickIndex) down(i int) {
	h := p.heap
	if i >= len(h) {
		return
	}
	e := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].above(h[c].pickKey) {
			c++
		}
		if !h[c].above(e.pickKey) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}
