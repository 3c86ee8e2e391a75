package passes

import (
	"carat/internal/analysis"
	"carat/internal/ir"
)

// TrackingInject inserts the CARAT runtime callbacks (§4.1.2):
//
//   - after every call to an allocation function: carat.alloc(ptr, size)
//   - before every call to a deallocation function: carat.free(ptr)
//   - after every alloca: carat.alloc(ptr, size) — stack allocations are
//     allocations too in the CARAT model
//   - after every store of a pointer-typed value: carat.escape(loc, value)
//
// Static allocations (globals) are recorded by the loader at program load
// time, not by instrumentation.
//
// The callback declarations are module mutations, so they happen in the
// serial Setup hook; the per-function instrumentation then runs in the
// parallel function sweep.
type TrackingInject struct {
	allocCB, freeCB, escCB *ir.Func
}

// Name implements Pass.
func (*TrackingInject) Name() string { return "carat-tracking" }

// Setup implements ModuleSetup: declare the runtime callbacks once, before
// any function is instrumented concurrently.
func (t *TrackingInject) Setup(m *ir.Module) error {
	t.allocCB = m.DeclareFunc(ir.FnTrackAlloc, ir.Void, ir.Ptr, ir.I64)
	t.freeCB = m.DeclareFunc(ir.FnTrackFree, ir.Void, ir.Ptr)
	t.escCB = m.DeclareFunc(ir.FnTrackEscape, ir.Void, ir.Ptr, ir.Ptr)
	return nil
}

// Preserves implements Pass. Inserted calls and size multiplies are
// new values (and real calls), so everything derived from instruction
// contents — alias, ranges, invariance, SCEV — goes stale; only block
// structure survives.
func (*TrackingInject) Preserves() analysis.Preserved {
	return analysis.Preserve(analysis.IDCFG, analysis.IDDom, analysis.IDLoops)
}

// RunOnFunc implements Pass.
func (t *TrackingInject) RunOnFunc(f *ir.Func, stats *Stats, fa *analysis.FuncAnalyses) error {
	callback := func(callee *ir.Func, args ...ir.Value) *ir.Instr {
		return &ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: callee, Args: args}
	}
	track := func(in *ir.Instr) (before, after *ir.Instr, keep bool) {
		switch {
		case in.Op == ir.OpCall && in.Callee != nil && ir.IsAllocFn(in.Callee.Name):
			size, mul := allocSizeValue(f, in)
			stats.AllocCallbacks++
			return mul, callback(t.allocCB, in, size), true

		case in.Op == ir.OpCall && in.Callee != nil && in.Callee.Name == ir.FnFree:
			stats.FreeCallbacks++
			return callback(t.freeCB, in.Args[0]), nil, true

		case in.Op == ir.OpAlloca:
			size, mul := allocaSizeValue(f, in)
			stats.AllocCallbacks++
			return mul, callback(t.allocCB, in, size), true

		case in.Op == ir.OpStore && in.Args[0].Type().IsPtr():
			// A pointer was copied into memory: an escape (§2.2).
			stats.EscapeCallbacks++
			return nil, callback(t.escCB, in.Args[1], in.Args[0]), true
		}
		return nil, nil, true
	}
	for _, b := range f.Blocks {
		b.Edit(track)
	}
	return nil
}

// allocSizeValue returns the byte size of a malloc/calloc result as a
// Value, and for calloc the multiply that computes it, to go before the call.
func allocSizeValue(f *ir.Func, call *ir.Instr) (size ir.Value, mul *ir.Instr) {
	if call.Callee.Name == ir.FnMalloc {
		return call.Args[0], nil
	}
	// calloc(n, size)
	mul = &ir.Instr{Op: ir.OpMul, Name: f.FreshName("tk"), Typ: ir.I64,
		Args: []ir.Value{call.Args[0], call.Args[1]}}
	return mul, mul
}

// allocaSizeValue returns the byte size of an alloca as a Value, and when the
// count is not a constant the multiply that computes it, to go before the
// alloca.
func allocaSizeValue(f *ir.Func, al *ir.Instr) (size ir.Value, mul *ir.Instr) {
	elem := al.Elem.Size()
	if c, ok := al.Args[0].(*ir.Const); ok {
		return ir.ConstInt(ir.I64, c.Int*elem), nil
	}
	mul = &ir.Instr{Op: ir.OpMul, Name: f.FreshName("tk"), Typ: ir.I64,
		Args: []ir.Value{al.Args[0], ir.ConstInt(ir.I64, elem)}}
	return mul, mul
}
