package passes

import (
	"carat/internal/analysis"
	"carat/internal/ir"
)

// GuardInject conceptually places a guard before every load, store, and
// call instruction (paper §2.2, §4.1.1). Load and store guards validate the
// accessed byte range; a call guard validates that the callee's maximum
// stack footprint stays within a valid region, covering the return-address
// push and the callee's prologue/epilogue accesses.
type GuardInject struct{}

// Name implements Pass.
func (*GuardInject) Name() string { return "guard-inject" }

// Preserves implements Pass. Guards are void instructions nothing else
// references: block structure, alias facts, and value ranges all survive.
// The per-loop analyses are not preserved (loop bodies now contain the
// guards, and downstream passes must see them with fresh eyes).
func (*GuardInject) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops,
		analysis.IDAlias, analysis.IDRanges)
}

// RunOnFunc implements Pass.
func (*GuardInject) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	guard := func(in *ir.Instr) (g, _ *ir.Instr, keep bool) {
		switch in.Op {
		case ir.OpLoad:
			g = &ir.Instr{
				Op: ir.OpGuard, Typ: ir.Void, Kind: ir.GuardLoad,
				Args: []ir.Value{in.Args[0], ir.ConstInt(ir.I64, in.AccessSize())},
			}
			stats.LoadGuards++
		case ir.OpStore:
			g = &ir.Instr{
				Op: ir.OpGuard, Typ: ir.Void, Kind: ir.GuardStore,
				Args: []ir.Value{in.Args[1], ir.ConstInt(ir.I64, in.AccessSize())},
			}
			stats.StoreGuards++
		case ir.OpCall:
			// Calls into the trusted runtime are not guarded: the
			// runtime is part of the TCB (§2.4) and guarding its
			// own callbacks would recurse.
			if in.Callee != nil && ir.IsRuntimeFn(in.Callee.Name) {
				return nil, nil, true
			}
			foot := in.Callee.StackFootprint
			if foot == 0 {
				foot = DefaultStackFootprint
			}
			g = &ir.Instr{
				Op: ir.OpGuard, Typ: ir.Void, Kind: ir.GuardCall,
				Args: []ir.Value{in.Callee, ir.ConstInt(ir.I64, foot)},
			}
			stats.CallGuards++
		default:
			return nil, nil, true
		}
		stats.GuardsInjected++
		return g, nil, true
	}
	for _, b := range f.Blocks {
		b.Edit(guard)
	}
	return nil
}

// DefaultStackFootprint is the assumed maximum stack footprint in bytes of
// a function whose frame size has not been computed (return address plus a
// conservative frame estimate). The VM uses the same constant.
const DefaultStackFootprint = 256
