// Package analysis implements the code analyses the CARAT compiler relies
// on (paper §4.1): CFG utilities, dominators, natural loops, a chained
// alias-analysis stack, loop-invariance powered by the alias results (the
// paper's "program dependence" enhancement), scalar evolution, and the
// available-pointer-definitions dataflow used by the AC/DC redundant-guard
// elimination.
package analysis

import (
	"slices"

	"carat/internal/ir"
)

// at reads t[id], and the zero value when id is past the end. A per-function
// table is sized from Func.NumIDs() when it is built; an instruction that
// enters the function afterwards (a guard, under the alias analysis the guard
// passes preserve) has an ID past it, and must read exactly as the absent key
// of the map the table replaced did. Every lookup in a table that can outlive
// an insertion goes through here or Bits.Has; put and Bits.With write.
func at[T any](t []T, id int32) (v T) {
	if int(id) < len(t) {
		v = t[id]
	}
	return v
}

// put stores v at t[id], growing t first when id is past its end.
func put[T any](t []T, id int32, v T) []T {
	if n := int(id) + 1; n > len(t) {
		t = append(t, make([]T, n-len(t))...)
	}
	t[id] = v
	return t
}

// CFG caches the predecessor lists and a reverse postorder of a function's
// blocks, in tables indexed by ir.Block.Idx. The pass manager keeps one per
// function (FuncAnalyses) while passes preserve it, and every pass does:
// none changes block structure.
type CFG struct {
	Fn *ir.Func
	// RPO is a reverse postorder over blocks reachable from the entry.
	RPO    []*ir.Block
	preds  [][]*ir.Block // sub-slices of one slab
	rpoNum []int32       // position in RPO, -1 if unreachable
}

// NewCFG computes the CFG caches for f.
func NewCFG(f *ir.Func) *CFG {
	n := len(f.Blocks)
	c := &CFG{Fn: f, RPO: make([]*ir.Block, 0, n), preds: make([][]*ir.Block, n), rpoNum: make([]int32, n)}
	// Predecessor lists in edge order (block order, then successor order),
	// carved from one slab; rpoNum holds the counting pass's counts meanwhile.
	edges := 0
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			c.rpoNum[s.Idx]++
			edges++
		}
	}
	slab := make([]*ir.Block, edges)
	for i, k := range c.rpoNum {
		c.preds[i], slab, c.rpoNum[i] = slab[:0:k], slab[k:], -1
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			c.preds[s.Idx] = append(c.preds[s.Idx], b)
		}
	}
	// Postorder DFS from entry (rpoNum is the visited mark: -1 not seen),
	// then reverse.
	if e := f.Entry(); e != nil {
		c.postorder(e)
	}
	slices.Reverse(c.RPO)
	for i, b := range c.RPO {
		c.rpoNum[b.Idx] = int32(i)
	}
	return c
}

// postorder appends the blocks reachable from b and not yet seen to RPO, in
// DFS postorder.
func (c *CFG) postorder(b *ir.Block) {
	c.rpoNum[b.Idx] = 0
	for _, s := range b.Succs() {
		if c.rpoNum[s.Idx] < 0 {
			c.postorder(s)
		}
	}
	c.RPO = append(c.RPO, b)
}

// PredsOf returns b's predecessors, one entry per edge, in block order.
func (c *CFG) PredsOf(b *ir.Block) []*ir.Block { return c.preds[b.Idx] }

// RPONum returns b's position in RPO, -1 if b is unreachable.
func (c *CFG) RPONum(b *ir.Block) int { return int(c.rpoNum[b.Idx]) }

// Reachable reports whether b is reachable from the function entry.
func (c *CFG) Reachable(b *ir.Block) bool { return c.rpoNum[b.Idx] >= 0 }
