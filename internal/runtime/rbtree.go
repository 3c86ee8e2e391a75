// Package runtime implements the CARAT runtime (paper §4.2): the Allocation
// Table (a red/black tree keyed by allocation base address), the Allocation
// to Escape Map, batched escape tracking, and the patch engine that executes
// kernel-initiated protection and mapping changes via the world-stop
// protocol of Figure 8.
package runtime

// The red/black tree below is written from scratch (no stdlib container
// fits): an intrusive ordered set of allocations keyed by Base — each
// Allocation is its own node — supporting predecessor queries ("find the
// allocation covering this address") and in-order range iteration ("find all
// allocations overlapping this page range"), both needed on the move path.
// Each node also keeps the most escapes any resident allocation in its
// subtree holds, which answers the Figure 9 pick (mostEscaped) by one
// descent.

import "carat/internal/kernel"

type color bool

const (
	red   color = false
	black color = true
)

// own is what n adds to the maxima: its escape count, 0 for a swapped-out
// allocation, which the pick never chooses.
func (n *Allocation) own() int {
	if kernel.IsPoison(n.Base) {
		return 0
	}
	return n.EscapeCount()
}

// subtreeMax computes n.max from n's own count and its children's maxima.
func (n *Allocation) subtreeMax() int {
	m := n.own()
	if n.left != nil {
		m = max(m, n.left.max)
	}
	if n.right != nil {
		m = max(m, n.right.max)
	}
	return m
}

// fixMax recomputes the maxima of n and its ancestors. With early it stops
// at the first node whose maximum does not change: right when only n's own
// count or one leaf below it changed, not when a node moved within the path.
func fixMax(n *Allocation, early bool) {
	for ; n != nil; n = n.parent {
		m := n.subtreeMax()
		if early && m == n.max {
			return
		}
		n.max = m
	}
}

// rbTree is a left-leaning-free classic red-black tree.
type rbTree struct {
	root *Allocation
	size int
}

// Len returns the number of entries.
func (t *rbTree) Len() int { return t.size }

// Get returns the allocation based at key, or nil.
func (t *rbTree) Get(key uint64) *Allocation {
	n := t.root
	for n != nil {
		switch {
		case key < n.Base:
			n = n.left
		case key > n.Base:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Floor returns the allocation with the largest base <= key, or nil.
func (t *rbTree) Floor(key uint64) *Allocation {
	var best *Allocation
	for n := t.root; n != nil; {
		if n.Base <= key {
			best, n = n, n.right
		} else {
			n = n.left
		}
	}
	return best
}

// Ceiling returns the allocation with the smallest base >= key, or nil.
func (t *rbTree) Ceiling(key uint64) *Allocation {
	var best *Allocation
	for n := t.root; n != nil; {
		if n.Base >= key {
			best, n = n, n.left
		} else {
			n = n.right
		}
	}
	return best
}

// Ascend calls fn for every allocation with lo <= base < hi in base order;
// fn returning false stops the walk. The walk follows parent links, so fn
// does not escape and a caller's closure costs nothing.
func (t *rbTree) Ascend(lo, hi uint64, fn func(*Allocation) bool) {
	for n := t.Ceiling(lo); n != nil && n.Base < hi; n = n.next() {
		if !fn(n) {
			return
		}
	}
}

// next returns n's in-order successor, or nil.
func (n *Allocation) next() *Allocation {
	if n.right != nil {
		for n = n.right; n.left != nil; n = n.left {
		}
		return n
	}
	for n.parent != nil && n == n.parent.right {
		n = n.parent
	}
	return n.parent
}

// AscendAll walks the whole tree in key order.
func (t *rbTree) AscendAll(fn func(*Allocation) bool) {
	t.Ascend(0, ^uint64(0), fn)
}

func (t *rbTree) rotateLeft(x *Allocation) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
	y.max = x.max // the same subtree
	x.max = x.subtreeMax()
}

func (t *rbTree) rotateRight(x *Allocation) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
	y.max = x.max
	x.max = x.subtreeMax()
}

// Insert links n under n.Base, whatever links n held before. If another
// allocation is based there already n stays unlinked; Insert returns whether
// n was linked.
func (t *rbTree) Insert(n *Allocation) bool {
	var parent *Allocation
	for c := t.root; c != nil; {
		parent = c
		switch {
		case n.Base < c.Base:
			c = c.left
		case n.Base > c.Base:
			c = c.right
		default:
			return false
		}
	}
	n.left, n.right, n.parent, n.col = nil, nil, parent, red
	switch {
	case parent == nil:
		t.root = n
	case n.Base < parent.Base:
		parent.left = n
	default:
		parent.right = n
	}
	n.max = n.own()
	fixMax(parent, true)
	t.size++
	t.insertFixup(n)
	return true
}

func (t *rbTree) insertFixup(z *Allocation) {
	for z.parent != nil && z.parent.col == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.col == red {
				z.parent.col = black
				u.col = black
				gp.col = red
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z)
				}
				z.parent.col = black
				gp.col = red
				t.rotateRight(gp)
			}
		} else {
			u := gp.left
			if u != nil && u.col == red {
				z.parent.col = black
				u.col = black
				gp.col = red
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z)
				}
				z.parent.col = black
				gp.col = red
				t.rotateLeft(gp)
			}
		}
	}
	t.root.col = black
}

// deleteNode unlinks z, a node of t.
func (t *rbTree) deleteNode(z *Allocation) {
	t.size--

	y := z
	yOrig := y.col
	var x *Allocation
	var xParent *Allocation
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yOrig = y.col
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.col = z.col
	}
	// y may have taken z's place above xParent: no early stop.
	fixMax(xParent, false)
	if yOrig == black {
		t.deleteFixup(x, xParent)
	}
}

// shift moves every key in [lo, hi) — a contiguous run starting at the key
// lo, such as the allocations a page move carries — by dst-lo, into a range
// that holds no other key, in one splice: split at lo and at the run's
// successor, join the outer trees by that successor, shift the run's keys
// in place (its shape and colours stay valid; its maxima are recomputed, as
// a key that becomes or stops being a poison base changes what its node
// adds), split the rest at dst and join the run back in there by its first
// and last node. O(k + log n) for k moved keys. It returns k and whether
// the destination held no other key; a run that lands among other keys
// leaves the tree out of order.
func (t *rbTree) shift(lo, hi, dst uint64) (int, bool) {
	next := t.Ceiling(hi)
	u, first, mid := split(subtree{t.root, blackHeight(t.root)}, lo)
	if next != nil {
		var c subtree
		mid, _, c = split(mid, next.Base)
		u = join(u, next, c)
	}
	k := shiftKeys(first, dst-lo) + shiftKeys(mid.root, dst-lo)
	u1, at, u2 := split(u, dst)
	if at != nil { // the destination is not clear: keep the key it holds
		u2 = join(subtree{}, at, u2)
	}
	clear := at == nil && (u2.root == nil || leftmost(u2.root).Base >= dst+(hi-lo))
	if mid.root == nil {
		t.root = join(u1, first, u2).root
		return k, clear
	}
	asRoot(mid.root, 0)
	last, mt := mid.root, rbTree{root: mid.root}
	for last.right != nil {
		last = last.right
	}
	mt.deleteNode(last)
	x := join(u1, first, subtree{mt.root, blackHeight(mt.root)})
	t.root = join(x, last, u2).root
	return k, clear
}

// shiftKeys adds delta to the base of every allocation of n's subtree,
// recomputes its maxima bottom up and returns its size.
func shiftKeys(n *Allocation, delta uint64) int {
	if n == nil {
		return 0
	}
	k := shiftKeys(n.left, delta) + shiftKeys(n.right, delta) + 1
	n.Base += delta
	n.max = n.subtreeMax()
	return k
}

func leftmost(n *Allocation) *Allocation {
	for n.left != nil {
		n = n.left
	}
	return n
}

// blackHeight counts the black nodes on a path from n down to a leaf, n
// included.
func blackHeight(n *Allocation) int {
	h := 0
	for ; n != nil; n = n.left {
		if n.col == black {
			h++
		}
	}
	return h
}

// subtree is a tree being cut or joined: its root, which may still name an
// old parent, and its black height.
type subtree struct {
	root *Allocation
	h    int
}

// children returns n's subtrees, given n's black height h.
func children(n *Allocation, h int) (subtree, subtree) {
	if n.col == black {
		h--
	}
	return subtree{n.left, h}, subtree{n.right, h}
}

// split cuts s at key: the keys below it, the node holding it (detached;
// nil if none) and the keys above. Each level joins what it cut off to one
// side, and the joins' costs telescope to O(log n).
func split(s subtree, key uint64) (l subtree, m *Allocation, r subtree) {
	n := s.root
	if n == nil {
		return s, nil, s
	}
	a, b := children(n, s.h)
	switch {
	case key < n.Base:
		l, m, r = split(a, key)
		r = join(r, n, b)
	case key > n.Base:
		l, m, r = split(b, key)
		l = join(a, n, l)
	default:
		l, m, r = a, n, b
		n.left, n.right = nil, nil
	}
	return l, m, r
}

// join links l, node m and r — every key of l below m's, every key of r
// above — into one tree and returns it, its root parentless and black.
// With both roots black, m hangs red from the taller tree's inner spine
// over the first black node as tall as the other tree, and a red-red pair
// that leaves is mended on the way up by a recolour and a rotation two
// levels higher: O(|l.h-r.h|+1).
func join(l subtree, m *Allocation, r subtree) subtree {
	l.h, r.h = asRoot(l.root, l.h), asRoot(r.root, r.h)
	if l.h == r.h {
		link(m, l.root, r.root)
		m.parent, m.col, m.max = nil, black, m.subtreeMax()
		return subtree{m, l.h + 1}
	}
	right := l.h > r.h
	t, c, h, target := rbTree{root: r.root}, r.root, r.h, l.h
	if right {
		t, c, h, target = rbTree{root: l.root}, l.root, l.h, r.h
	}
	var p *Allocation
	for !isBlack(c) || h != target {
		if c.col == black {
			h--
		}
		if p = c; right {
			c = c.right
		} else {
			c = c.left
		}
	}
	if m.parent = p; right {
		link(m, c, r.root)
		p.right = m
	} else {
		link(m, l.root, c)
		p.left = m
	}
	m.col = red
	fixMax(m, false)
	for x := m; x.parent != nil && x.parent.col == red; x = x.parent { // x is red
		x.col = black
		if right {
			t.rotateLeft(x.parent.parent)
		} else {
			t.rotateRight(x.parent.parent)
		}
	}
	h = max(l.h, r.h)
	if t.root.col == red {
		t.root.col, h = black, h+1
	}
	return subtree{t.root, h}
}

// asRoot detaches n from its parent and blackens it, returning its black
// height given h, the height before.
func asRoot(n *Allocation, h int) int {
	if n != nil {
		n.parent = nil
		if n.col == red {
			n.col, h = black, h+1
		}
	}
	return h
}

// link makes l and r m's children.
func link(m, l, r *Allocation) {
	m.left, m.right = l, r
	if l != nil {
		l.parent = m
	}
	if r != nil {
		r.parent = m
	}
}

// mostEscaped is the Figure 9 pick: the resident allocation with the most
// escapes, the lowest-based of several with as many; with no escape into
// one, the lowest-based resident allocation; nil when none is resident.
// Poison bases sort above every resident one. One descent: left while the
// left subtree holds the maximum, else n itself if it does, else right.
func (t *rbTree) mostEscaped() *Allocation {
	n := t.root
	if n == nil {
		return nil
	}
	if n.max == 0 {
		if a := t.Ceiling(0); !kernel.IsPoison(a.Base) {
			return a
		}
		return nil
	}
	for m := n.max; ; {
		switch {
		case n.left != nil && n.left.max == m:
			n = n.left
		case n.own() == m:
			return n
		default:
			n = n.right
		}
	}
}

func (t *rbTree) transplant(u, v *Allocation) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *rbTree) deleteFixup(x *Allocation, parent *Allocation) {
	for x != t.root && isBlack(x) {
		if x == parent.left {
			w := parent.right
			if w != nil && w.col == red {
				w.col = black
				parent.col = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.col = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.right) {
					if w.left != nil {
						w.left.col = black
					}
					w.col = red
					t.rotateRight(w)
					w = parent.right
				}
				w.col = parent.col
				parent.col = black
				if w.right != nil {
					w.right.col = black
				}
				t.rotateLeft(parent)
				x = t.root
				parent = nil
			}
		} else {
			w := parent.left
			if w != nil && w.col == red {
				w.col = black
				parent.col = red
				t.rotateRight(parent)
				w = parent.left
			}
			if isBlack(w.right) && isBlack(w.left) {
				w.col = red
				x = parent
				parent = x.parent
			} else {
				if isBlack(w.left) {
					if w.right != nil {
						w.right.col = black
					}
					w.col = red
					t.rotateLeft(w)
					w = parent.left
				}
				w.col = parent.col
				parent.col = black
				if w.left != nil {
					w.left.col = black
				}
				t.rotateRight(parent)
				x = t.root
				parent = nil
			}
		}
	}
	if x != nil {
		x.col = black
	}
}

func isBlack(n *Allocation) bool { return n == nil || n.col == black }

// checkInvariants validates the red-black properties, every node's subtree
// maximum and that each child names its parent; used by tests.
func (t *rbTree) checkInvariants() error {
	if t.root != nil && t.root.col != black {
		return errRBRootRed
	}
	_, err := checkNode(t.root)
	return err
}

var (
	errRBRootRed   = rbError("root is red")
	errRBRedRed    = rbError("red node with red child")
	errRBBlackPath = rbError("unequal black heights")
	errRBOrder     = rbError("BST order violated")
	errRBMax       = rbError("subtree maximum stale")
	errRBParent    = rbError("a child names another parent")
)

type rbError string

func (e rbError) Error() string { return "rbtree: " + string(e) }

func checkNode(n *Allocation) (int, error) {
	if n == nil {
		return 1, nil
	}
	if n.col == red {
		if !isBlack(n.left) || !isBlack(n.right) {
			return 0, errRBRedRed
		}
	}
	if n.left != nil && n.left.Base >= n.Base {
		return 0, errRBOrder
	}
	if n.right != nil && n.right.Base <= n.Base {
		return 0, errRBOrder
	}
	if n.left != nil && n.left.parent != n || n.right != nil && n.right.parent != n {
		return 0, errRBParent
	}
	lh, err := checkNode(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errRBBlackPath
	}
	if n.max != n.subtreeMax() {
		return 0, errRBMax
	}
	if n.col == black {
		lh++
	}
	return lh, nil
}
