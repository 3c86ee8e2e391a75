package analysis

import (
	"slices"

	"carat/internal/ir"
)

// Loop is a natural loop: a header plus the set of blocks that can reach a
// back edge to the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	// Ordered lists the loop's blocks in CFG reverse postorder: what passes and
	// analyses iterate, so synthesized code lands in the same order every compile.
	Ordered []*ir.Block
	Parent  *Loop   // enclosing loop, or nil for top-level loops
	Subs    []*Loop // directly nested loops
	Depth   int     // nesting depth, 1 for top-level

	blocks Bits // membership, by Block.Idx
}

// Contains reports whether b belongs to the loop.
func (l *Loop) Contains(b *ir.Block) bool { return l.blocks.Has(b.Idx) }

// ContainsInstr reports whether in belongs to the loop.
func (l *Loop) ContainsInstr(in *ir.Instr) bool { return l.blocks.Has(in.Block.Idx) }

// Preheader returns the unique out-of-loop predecessor of the header, or
// nil when the header has several out-of-loop predecessors or the one it has
// also branches elsewhere. No pass creates one: a loop without a preheader
// is one LICM and the guard optimizations leave alone.
func (l *Loop) Preheader(c *CFG) *ir.Block {
	var ph *ir.Block
	for _, p := range c.PredsOf(l.Header) {
		if l.Contains(p) {
			continue
		}
		if ph != nil {
			return nil
		}
		ph = p
	}
	// A preheader must branch only to the header.
	if ph != nil && len(ph.Succs()) != 1 {
		return nil
	}
	return ph
}

// Latches returns the in-loop predecessors of the header (back-edge sources).
func (l *Loop) Latches(c *CFG) []*ir.Block {
	var ls []*ir.Block
	for _, p := range c.PredsOf(l.Header) {
		if l.Contains(p) {
			ls = append(ls, p)
		}
	}
	return ls
}

// Exits returns the blocks outside the loop that are branched to from
// inside the loop, each once, in the order the edges appear.
func (l *Loop) Exits() []*ir.Block {
	var out []*ir.Block
	for _, b := range l.Ordered {
		for _, s := range b.Succs() {
			if !l.Contains(s) && !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	return out
}

// LoopForest is the set of natural loops of a function, nested.
type LoopForest struct {
	// Top holds the outermost loops in header RPO order.
	Top       []*Loop
	innermost []*Loop // by Block.Idx: the innermost loop containing the block
}

// Innermost returns the innermost loop containing b, nil if none does.
func (lf *LoopForest) Innermost(b *ir.Block) *Loop { return lf.innermost[b.Idx] }

// FindLoops discovers the natural loops of f using dominance: an edge
// t→h is a back edge iff h dominates t; the loop body is found by a
// reverse flood from t stopping at h.
func FindLoops(c *CFG, dom *DomTree) *LoopForest {
	n := len(c.Fn.Blocks)
	lf := &LoopForest{innermost: make([]*Loop, n)}
	byHeader := make([]*Loop, n) // by the header's Block.Idx
	var stack []*ir.Block
	// Collect loops in RPO so outer loops come before inner ones.
	for _, b := range c.RPO {
		for _, s := range b.Succs() {
			if !dom.Dominates(s, b) {
				continue // not a back edge
			}
			l := byHeader[s.Idx]
			if l == nil {
				l = &Loop{Header: s, blocks: NewBits(n).With(s.Idx)}
				byHeader[s.Idx] = l
			}
			// Reverse flood from the latch.
			if !l.Contains(b) {
				l.blocks.Set(b.Idx)
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, p := range c.PredsOf(x) {
					if !l.Contains(p) && c.Reachable(p) {
						l.blocks.Set(p.Idx)
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Nest loops: loop A is inside loop B if B contains A's header and A≠B.
	var all []*Loop
	for _, b := range c.RPO {
		if l := byHeader[b.Idx]; l != nil {
			all = append(all, l)
		}
	}
	for _, l := range all {
		for _, b := range c.RPO {
			if l.Contains(b) {
				l.Ordered = append(l.Ordered, b)
			}
		}
	}
	for _, inner := range all {
		var best *Loop
		for _, outer := range all {
			if outer == inner || !outer.Contains(inner.Header) {
				continue
			}
			if best == nil || best.Contains(outer.Header) {
				best = outer
			}
		}
		inner.Parent = best
		if best != nil {
			best.Subs = append(best.Subs, inner)
		} else {
			lf.Top = append(lf.Top, inner)
		}
	}
	// Depth, and the innermost table: All lists a loop before the loops
	// nested in it, so a deeper loop overwrites a shallower one.
	for _, l := range lf.All() {
		l.Depth = 1
		if l.Parent != nil {
			l.Depth = l.Parent.Depth + 1
		}
		for _, b := range l.Ordered {
			if cur := lf.innermost[b.Idx]; cur == nil || cur.Depth < l.Depth {
				lf.innermost[b.Idx] = l
			}
		}
	}
	return lf
}

// All returns every loop in the forest, outermost first.
func (lf *LoopForest) All() []*Loop {
	var out []*Loop
	var walk func(*Loop)
	walk = func(l *Loop) {
		out = append(out, l)
		for _, s := range l.Subs {
			walk(s)
		}
	}
	for _, l := range lf.Top {
		walk(l)
	}
	return out
}
