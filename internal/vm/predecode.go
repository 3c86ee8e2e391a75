package vm

import (
	"fmt"
	"math"
	"slices"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/passes"
)

// Predecode lowering: the first of the compiled engine's two stages. The
// reference interpreter (exec.go) walks *ir.Instr values directly: every
// operand read is an interface type switch plus (for SSA values) a map
// lookup, and every taken branch re-discovers the incoming phi edge by
// scanning phi.Preds. None of that work depends on runtime state, so
// predecode lowers each function once — on its first call — into a flat
// array-of-structs form with resolved register slots, immediate constants,
// precomputed GEP strides, direct successor-block indices, and per-edge phi
// copy lists. The closure compiler (closure.go) takes that form as its
// input; nothing executes it directly.
//
// The lowering is total over verified modules: ir.Verify rejects every shape
// it has no form for (aggregate-width accesses, struct GEP indices that are
// not in-range constants, undefined opcodes), and NewProgram verifies before
// anything is lowered. A shape it still cannot lower is a bug, not an input.

// poperand kinds.
const (
	pkImm    = iota // immediate: imm holds the value (floats pre-bitcast)
	pkSlot          // frame register: idx is the slot
	pkGlobal        // idx into VM.globalPhys (live across moves)
	pkFunc          // idx into VM.funcPhys (live across moves)
)

// poperand is a resolved operand: no interface dispatch, no map lookups.
type poperand struct {
	kind uint8
	idx  int32
	imm  uint64
}

// pgepStep is one dynamic GEP index with its precomputed byte stride.
type pgepStep struct {
	op     poperand
	stride int64
}

// pcopy is one phi assignment attached to a CFG edge: when the edge is
// taken, regs[dst] receives the value of src (all srcs are read before any
// dst is written, preserving parallel-phi semantics).
type pcopy struct {
	dst int32
	src poperand
}

// pinstr is one predecoded instruction. A single struct covers every op;
// the op field selects which subset of the fields is meaningful. raw always
// points at the source instruction for cold paths (faults, error messages).
type pinstr struct {
	op   ir.Op
	cost uint8
	dst  int32 // result slot, -1 when the op produces no value

	a, b, c poperand // up to three scalar operands

	bits      uint8   // result int width (binops, casts, FPToSI)
	srcBits   uint8   // source int width (ZExt/SExt, unsigned ICmp mask)
	maskCmp   bool    // ICmp: unsigned predicate needs width masking
	pred      ir.Pred // ICmp/FCmp
	elemSize  uint64  // Alloca element size
	width     uint8   // Load/Store access width (1/2/4/8)
	signed    bool    // Load: sign-extend an int element
	kind      ir.GuardKind
	callee    *ir.Func
	calleeIdx int32      // callee's index in the program's function table
	args      []poperand // Call arguments

	gepConst uint64 // folded constant GEP offset
	gepSteps []pgepStep

	succ0, succ1     int32   // Br/CondBr successor block indices
	copies0, copies1 []pcopy // phi copies for the taken edge

	raw *ir.Instr
}

// pblock is one predecoded basic block: its non-phi instructions. Phis are
// compiled away into the predecessors' edge copy lists.
type pblock struct {
	code []pinstr
}

// pfunc is a predecoded function body.
type pfunc struct {
	blocks  []pblock
	maxPhis int // widest phi set of any block, sizes the copy scratch
}

// predecode lowers l's function. The result depends on the module alone; it
// lives on inside the cfunc compiled from it, whose cold paths keep pointers
// into its code arrays (see VM.bind).
func (p *Program) predecode(l *funcLayout) *pfunc {
	f := l.fn
	blockIdx := make(map[*ir.Block]int32, len(f.Blocks))
	for i, b := range f.Blocks {
		blockIdx[b] = int32(i)
	}
	pf := &pfunc{blocks: make([]pblock, len(f.Blocks))}

	// Edge copies: for the edge prev->b, the phis of b select the operand
	// whose Preds entry is prev.
	edgeCopies := func(prev, b *ir.Block) []pcopy {
		phis := b.Phis()
		if len(phis) == 0 {
			return nil
		}
		if len(phis) > pf.maxPhis {
			pf.maxPhis = len(phis)
		}
		copies := make([]pcopy, len(phis))
		for i, phi := range phis {
			j := slices.Index(phi.Preds, prev) // Verify: every edge has an incoming
			copies[i] = pcopy{dst: int32(l.slotOf[phi]), src: p.pdecodeOperand(l, phi.Args[j])}
		}
		return copies
	}

	for bi, b := range f.Blocks {
		phis := b.Phis()
		code := make([]pinstr, 0, len(b.Instrs)-len(phis))
		for _, in := range b.Instrs[len(phis):] {
			pi := p.pdecodeInstr(l, in)
			if in.Op == ir.OpBr || in.Op == ir.OpCondBr {
				pi.succ0 = blockIdx[in.Succs[0]]
				pi.copies0 = edgeCopies(b, in.Succs[0])
				if in.Op == ir.OpCondBr {
					pi.succ1 = blockIdx[in.Succs[1]]
					pi.copies1 = edgeCopies(b, in.Succs[1])
				}
			}
			code = append(code, pi)
		}
		pf.blocks[bi] = pblock{code: code}
	}
	return pf
}

// pdecodeOperand resolves one ir.Value into a poperand.
func (p *Program) pdecodeOperand(l *funcLayout, x ir.Value) poperand {
	switch c := x.(type) {
	case *ir.Const:
		if c.Typ.IsFloat() {
			return poperand{kind: pkImm, imm: math.Float64bits(c.Float)}
		}
		return poperand{kind: pkImm, imm: uint64(c.Int)}
	case *ir.Global:
		return poperand{kind: pkGlobal, idx: p.globalIdx[c]}
	case *ir.Func:
		return poperand{kind: pkFunc, idx: p.funcIdx[c]}
	default:
		return poperand{kind: pkSlot, idx: int32(l.slotOf[x])}
	}
}

// pval reads a resolved operand on the compiled engine's cold paths. The
// pkGlobal/pkFunc indirection through the phys tables (rebased by onMove)
// keeps kernel-initiated moves visible, like the reference interpreter's
// live lookups.
func (v *VM) pval(fr *frame, p poperand) uint64 {
	switch p.kind {
	case pkImm:
		return p.imm
	case pkSlot:
		return fr.regs[p.idx]
	case pkGlobal:
		return v.globalPhys[p.idx]
	default:
		return v.funcPhys[p.idx]
	}
}

// pdecodeInstr lowers one non-phi, possibly-terminator instruction.
func (p *Program) pdecodeInstr(l *funcLayout, in *ir.Instr) pinstr {
	pi := pinstr{op: in.Op, cost: uint8(opCycles[in.Op]), dst: -1, raw: in}
	if in.Op.HasResult() && in.Typ != ir.Void {
		pi.dst = int32(l.slotOf[in])
	}
	opnd := func(i int) poperand { return p.pdecodeOperand(l, in.Args[i]) }

	switch {
	case in.Op.IsBinary():
		pi.a, pi.b = opnd(0), opnd(1)
		pi.bits = uint8(in.Typ.Bits)

	case in.Op == ir.OpICmp:
		pi.a, pi.b = opnd(0), opnd(1)
		pi.pred = in.Pred
		if t := in.Args[0].Type(); in.Pred >= ir.PredULT && t.IsInt() && t.Bits < 64 {
			pi.maskCmp = true
			pi.srcBits = uint8(t.Bits)
		}

	case in.Op == ir.OpFCmp:
		pi.a, pi.b = opnd(0), opnd(1)
		pi.pred = in.Pred

	case in.Op.IsCast():
		pi.a = opnd(0)
		pi.bits = uint8(in.Typ.Bits)
		pi.srcBits = uint8(in.Args[0].Type().Bits)

	case in.Op == ir.OpAlloca:
		pi.a = opnd(0)
		pi.elemSize = uint64(in.Elem.Size())

	case in.Op == ir.OpLoad:
		pi.a = opnd(0)
		pi.width = uint8(in.Elem.Size())
		pi.signed = in.Elem.IsInt()
		pi.srcBits = uint8(in.Elem.Bits)

	case in.Op == ir.OpStore:
		pi.a, pi.b = opnd(0), opnd(1)
		pi.width = uint8(in.Args[0].Type().Size())

	case in.Op == ir.OpGEP:
		pi.a = opnd(0)
		typ := in.Elem
		for i, idxV := range in.Args[1:] {
			if i == 0 {
				pi.gepAdd(p, l, idxV, typ.Size())
				continue
			}
			switch typ.Kind {
			case ir.ArrayKind:
				typ = typ.Elem
				pi.gepAdd(p, l, idxV, typ.Size())
			case ir.StructKind:
				c := idxV.(*ir.Const) // Verify: an in-range constant
				pi.gepConst += uint64(typ.FieldOffset(int(c.Int)))
				typ = typ.Fields[c.Int]
			default:
				pi.gepAdd(p, l, idxV, typ.Size())
			}
		}

	case in.Op == ir.OpSelect:
		pi.a, pi.b, pi.c = opnd(0), opnd(1), opnd(2)

	case in.Op == ir.OpGuard:
		pi.kind = in.Kind
		pi.a = opnd(0)
		if len(in.Args) > 1 {
			pi.b = opnd(1)
		}

	case in.Op == ir.OpCall:
		pi.callee, pi.calleeIdx = in.Callee, p.funcIdx[in.Callee]
		pi.args = make([]poperand, len(in.Args))
		for i := range in.Args {
			pi.args[i] = opnd(i)
		}

	case in.Op == ir.OpCondBr:
		pi.a = opnd(0)

	case in.Op == ir.OpRet:
		if len(in.Args) == 1 {
			pi.a = opnd(0)
			pi.args = []poperand{pi.a} // non-nil marks "has return value"
		}

	case in.Op == ir.OpBr, in.Op == ir.OpUnreachable:
		// nothing beyond successors/raw

	default:
		panic(fmt.Sprintf("vm: predecode: no lowering for %s (module not verified?)", in))
	}
	return pi
}

// gepAdd folds a constant index into gepConst or appends a dynamic step.
func (pi *pinstr) gepAdd(p *Program, l *funcLayout, idxV ir.Value, stride int64) {
	if c, isConst := idxV.(*ir.Const); isConst {
		pi.gepConst += uint64(c.Int * stride)
		return
	}
	pi.gepSteps = append(pi.gepSteps, pgepStep{op: p.pdecodeOperand(l, idxV), stride: stride})
}

// pexecGuard evaluates a predecoded guard — every guard the closure compiler
// did not fuse with its access, and the cold path of every one it did: one
// xcache probe, then the miss/fault path the reference interpreter shares.
func (v *VM) pexecGuard(t *thread, fr *frame, in *pinstr) error {
	var addr, size uint64
	var perm guard.Perm
	switch in.kind {
	case ir.GuardLoad, ir.GuardRange:
		addr, size, perm = v.pval(fr, in.a), v.pval(fr, in.b), guard.PermRead
	case ir.GuardStore, ir.GuardRangeStore:
		addr, size, perm = v.pval(fr, in.a), v.pval(fr, in.b), guard.PermWrite
	case ir.GuardCall:
		foot := v.pval(fr, in.b)
		if foot == 0 {
			foot = passes.DefaultStackFootprint
		}
		addr, size, perm = t.sp-foot, foot, guard.PermRW
	}
	if int64(size) <= 0 {
		return nil
	}
	if v.eval.CheckCached(t.xc, addr, size, perm) {
		return nil
	}
	return v.guardMiss(fr, in.raw, addr, size, perm, func() uint64 { return v.pval(fr, in.a) })
}
