package passes

import (
	"carat/internal/analysis"
	"carat/internal/ir"
)

// HoistGuards is Optimization 1 (§4.1.1): a guard whose address is
// loop-invariant is moved into the loop preheader, so it executes once per
// loop entry instead of once per iteration. Call guards are hoisted out of
// loops that perform no stack allocation. The pass applies itself
// recursively: after an inner loop's guards move to its preheader, a later
// iteration can move them out of the enclosing loop.
type HoistGuards struct{}

// Name implements Pass.
func (*HoistGuards) Name() string { return "carat-hoist" }

// hoistPreserved: moving a guard changes no block structure (CFG, domtree,
// loop forest survive), introduces no new values (alias facts and range
// memos survive), but does change what executes inside each loop body, so
// invariance and SCEV are not preserved.
var hoistPreserved = analysis.Preserve(analysis.IDCFG, analysis.IDDom,
	analysis.IDLoops, analysis.IDAlias, analysis.IDRanges)

// Preserves implements Pass.
func (*HoistGuards) Preserves() analysis.Preserved { return hoistPreserved }

// RunOnFunc implements Pass.
func (*HoistGuards) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	for {
		if hoistFunc(stats, fa) == 0 {
			break
		}
		// Another sweep follows over the mutated loop bodies: drop what
		// this pass does not keep valid before re-querying invariance.
		fa.Invalidate(hoistPreserved)
	}
	return nil
}

// hoistFunc performs one innermost-to-outermost hoisting sweep and returns
// how many guards moved. Stats.Attribute ensures each original guard counts
// at most once toward the Opt 1 statistics even when hoisted through
// several loop levels.
func hoistFunc(stats *Stats, fa *analysis.FuncAnalyses) int {
	cfg := fa.CFG()
	dom := fa.Dom()
	var inv *analysis.Invariance
	var latches []*ir.Block
	stackFree := false
	return hoistEach(fa, cfg, func(l *analysis.Loop) {
		inv, latches = fa.Invariance(l), l.Latches(cfg)
		stackFree = inv.StackAllocFree()
	}, func(l *analysis.Loop, ph, b *ir.Block, in *ir.Instr) bool {
		// The guarded path must run every iteration; otherwise hoisting
		// would guard an access that may never happen, turning a legal run
		// into a fault.
		if in.Op != ir.OpGuard || !dominatesAll(dom, b, latches) {
			return false
		}
		ok := false
		switch in.Kind {
		case ir.GuardCall:
			// Safe when the loop allocates no stack: the footprint check
			// result cannot change across iterations.
			ok = stackFree
		case ir.GuardLoad, ir.GuardStore, ir.GuardRange, ir.GuardRangeStore:
			ok = inv.Invariant(in.Args[0]) && inv.Invariant(in.Args[1]) &&
				operandsAvailable(dom, l, in, ph)
		}
		// Range guards belong to Opt 2's statistics; each guard is
		// attributed to one optimization only.
		if ok && in.Kind != ir.GuardRange && in.Kind != ir.GuardRangeStore && stats.Attribute(in) {
			stats.Hoisted++
		}
		return ok
	})
}
