package analysis

import "carat/internal/ir"

// DomTree is a dominator tree computed with the Cooper-Harvey-Kennedy
// iterative algorithm.
type DomTree struct {
	cfg  *CFG
	idom []*ir.Block // by Block.Idx; the entry's is itself, an unreachable block's nil
}

// NewDomTree computes the dominator tree of f's CFG.
func NewDomTree(c *CFG) *DomTree {
	d := &DomTree{cfg: c, idom: make([]*ir.Block, len(c.Fn.Blocks))}
	if len(c.RPO) == 0 {
		return d
	}
	entry := c.RPO[0]
	d.idom[entry.Idx] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range c.RPO[1:] {
			var newIdom *ir.Block
			for _, p := range c.PredsOf(b) {
				if d.idom[p.Idx] == nil {
					continue // not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != nil && d.idom[b.Idx] != newIdom {
				d.idom[b.Idx] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for d.cfg.rpoNum[a.Idx] > d.cfg.rpoNum[b.Idx] {
			a = d.idom[a.Idx]
		}
		for d.cfg.rpoNum[b.Idx] > d.cfg.rpoNum[a.Idx] {
			b = d.idom[b.Idx]
		}
	}
	return a
}

// IDom returns the immediate dominator of b (nil for the entry block and
// unreachable blocks).
func (d *DomTree) IDom(b *ir.Block) *ir.Block {
	id := d.idom[b.Idx]
	if id == b {
		return nil
	}
	return id
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	if !d.cfg.Reachable(a) || !d.cfg.Reachable(b) {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := d.idom[b.Idx]
		if next == nil || next == b {
			return a == b
		}
		b = next
	}
}
