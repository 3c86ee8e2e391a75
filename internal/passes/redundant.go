package passes

import (
	"carat/internal/analysis"
	"carat/internal/ir"
)

// RedundantGuards is Optimization 3, the paper's AC/DC analysis ("Address
// Checking for Data Custody", §4.1.1): a guard is removed when the same
// (address, at-least-as-large size) has already been checked on every path
// reaching it. The analysis is the available-expressions dataflow over
// pointer definitions: GEN is the guard's (addr, size) fact; nothing kills
// a fact because SSA values are never redefined and kernel-initiated
// mapping changes patch pointers so that a previously validated pointer
// stays valid (§2.2).
type RedundantGuards struct{}

// Name implements Pass.
func (*RedundantGuards) Name() string { return "carat-acdc" }

// guardFact identifies what a guard established.
type guardFact struct {
	addr ir.Value
	kind ir.GuardKind // call guards only subsume call guards
}

// Preserves implements Pass. Removing a guard deletes a void
// instruction nothing references: block structure, alias facts, and value
// ranges all survive; only the per-loop analyses (which record loop
// contents) go stale.
func (*RedundantGuards) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops,
		analysis.IDAlias, analysis.IDRanges)
}

// RunOnFunc implements Pass.
func (*RedundantGuards) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	acdcFunc(f, stats, fa)
	return nil
}

func acdcFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) {
	// Build the fact universe: one fact per distinct (addr value, kind),
	// carrying the maximum size guaranteed when the fact holds. To stay
	// conservative the fact's size is the MINIMUM of the generating
	// guards' sizes, since availability only promises the smallest check
	// seen on some path... strictly, per-path sizes could differ; we track
	// facts per exact (addr, size) when sizes are constants, which avoids
	// the issue entirely: a guard only subsumes guards with size <= its own
	// generated size facts.
	type factInfo struct {
		id   int
		size int64 // constant size of this fact
	}
	facts := make(map[guardFact][]factInfo, stats.GuardsInjected) // (addr,kind) -> facts by size
	var nFacts int
	// factOf is a guard's fact number plus one, by Instr.ID (0: it generates
	// none). Nothing is inserted while the table lives.
	factOf := make([]int32, f.NumIDs())

	f.ForEachInstr(func(in *ir.Instr) {
		if in.Op != ir.OpGuard {
			return
		}
		szc, ok := in.Args[1].(*ir.Const)
		if !ok {
			return // dynamic sizes participate only as consumers
		}
		key := guardFact{addr: in.Args[0], kind: normKind(in.Kind)}
		for _, fi := range facts[key] {
			if fi.size == szc.Int {
				factOf[in.ID] = int32(fi.id) + 1
				return
			}
		}
		fi := factInfo{id: nFacts, size: szc.Int}
		nFacts++
		facts[key] = append(facts[key], fi)
		factOf[in.ID] = int32(fi.id) + 1
	})
	if nFacts == 0 {
		return
	}

	cfg := fa.CFG()
	ins := analysis.ForwardMust(cfg, nFacts, func(b *ir.Block, in analysis.Bits) analysis.Bits {
		for _, i := range b.Instrs {
			if i.Op == ir.OpGuard && factOf[i.ID] != 0 {
				in.Set(int(factOf[i.ID]) - 1)
			}
		}
		return in
	})

	// subsumes returns whether an available fact set covers guard g.
	subsumes := func(avail analysis.Bits, g *ir.Instr) bool {
		szc, ok := g.Args[1].(*ir.Const)
		if !ok {
			return false
		}
		key := guardFact{addr: g.Args[0], kind: normKind(g.Kind)}
		for _, fi := range facts[key] {
			if fi.size >= szc.Int && avail.Has(fi.id) {
				return true
			}
		}
		return false
	}

	var avail analysis.Bits
	sweep := func(g *ir.Instr) (_, _ *ir.Instr, keep bool) {
		if g.Op != ir.OpGuard {
			return nil, nil, true
		}
		if subsumes(avail, g) {
			if stats.Attribute(g) {
				stats.Removed++
			}
			return nil, nil, false
		}
		if factOf[g.ID] != 0 {
			avail.Set(int(factOf[g.ID]) - 1)
		}
		return nil, nil, true
	}
	for _, b := range cfg.RPO {
		avail = append(avail[:0], ins[b.Idx]...)
		b.Edit(sweep)
	}
}

// normKind maps guard kinds onto the permission they establish, so that
// subsumption stays sound: read guards subsume only read guards, write
// guards only write guards, call guards only call guards.
func normKind(k ir.GuardKind) ir.GuardKind {
	switch k {
	case ir.GuardRange:
		return ir.GuardLoad
	case ir.GuardRangeStore:
		return ir.GuardStore
	}
	return k
}
