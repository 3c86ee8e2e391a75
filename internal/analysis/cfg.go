// Package analysis implements the code analyses the CARAT compiler relies
// on (paper §4.1): CFG utilities, dominators, natural loops, a chained
// alias-analysis stack, loop-invariance powered by the alias results (the
// paper's "program dependence" enhancement), scalar evolution, and the
// available-pointer-definitions dataflow used by the AC/DC redundant-guard
// elimination.
package analysis

import "carat/internal/ir"

// CFG caches the predecessor lists and a reverse postorder of a function's
// blocks. Build one per function per pass invocation; it is invalidated by
// any mutation of block structure.
type CFG struct {
	Fn    *ir.Func
	Preds map[*ir.Block][]*ir.Block
	// RPO is a reverse postorder over blocks reachable from the entry.
	RPO []*ir.Block
	// RPONum maps a block to its position in RPO (-1 if unreachable).
	RPONum map[*ir.Block]int
}

// NewCFG computes the CFG caches for f.
func NewCFG(f *ir.Func) *CFG {
	c := &CFG{
		Fn:     f,
		Preds:  make(map[*ir.Block][]*ir.Block, len(f.Blocks)),
		RPONum: make(map[*ir.Block]int, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			c.Preds[s] = append(c.Preds[s], b)
		}
	}
	// Postorder DFS from entry, then reverse.
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	post := make([]*ir.Block, 0, len(f.Blocks))
	var dfs func(*ir.Block)
	dfs = func(b *ir.Block) {
		seen[b] = true
		for _, s := range b.Succs() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if e := f.Entry(); e != nil {
		dfs(e)
	}
	c.RPO = make([]*ir.Block, len(post))
	for i := range post {
		c.RPO[i] = post[len(post)-1-i]
	}
	for _, b := range f.Blocks {
		c.RPONum[b] = -1
	}
	for i, b := range c.RPO {
		c.RPONum[b] = i
	}
	return c
}

// Reachable reports whether b is reachable from the function entry.
func (c *CFG) Reachable(b *ir.Block) bool { return c.RPONum[b] >= 0 }
