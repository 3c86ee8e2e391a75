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
// points at the source instruction for cold paths (faults, error messages)
// and for what only the closure compiler reads once (raw.Pred, raw.Callee).
// The fixed part is what most instructions need; what only calls, dynamic
// GEPs, selects and phi-carrying branches have sits behind ext.
type pinstr struct {
	op   ir.Op
	kind ir.GuardKind
	dst  int32 // result slot, -1 when the op produces no value

	cost    uint8
	bits    uint8 // result int width (binops, casts, FPToSI)
	srcBits uint8 // source int width (ZExt/SExt, unsigned ICmp mask)
	width   uint8 // Load/Store access width (1/2/4/8)
	maskCmp bool  // ICmp: unsigned predicate needs width masking
	signed  bool  // Load: sign-extend an int element
	hasRet  bool  // Ret: a holds the return value

	a, b poperand // up to two scalar operands (Select's third is in ext)

	calleeIdx    int32  // Call: callee's index in the program's function table
	succ0, succ1 int32  // Br/CondBr successor block indices
	imm          uint64 // Alloca: element size; GEP: folded constant offset

	ext *pext
	raw *ir.Instr
}

// pext is the rarely present tail of a pinstr. An instruction without one
// points at noExt, every list empty, which nothing ever writes.
type pext struct {
	args             []poperand // Call arguments
	gepSteps         []pgepStep // GEP: dynamic indices
	copies0, copies1 []pcopy    // Br/CondBr: phi copies for the taken edge
	c                poperand   // Select: the value when the condition is clear
}

var noExt pext

// pfunc is a predecoded function body: per block its non-phi instructions
// (phis are compiled away into the predecessors' edge copy lists), all
// sub-slices of one slab.
type pfunc struct {
	blocks  [][]pinstr
	maxPhis int // widest phi set of any block, sizes the copy scratch
}

// pdecoder is the state of one function's predecode: the layout it resolves
// registers against and the slabs it carves — sized once, from a counting
// pass, so nothing is allocated per instruction. A successor's block index is
// its ir.Block.Idx.
type pdecoder struct {
	*Program
	l    *funcLayout
	pf   *pfunc
	exts []pext
	args []poperand
}

// needsExt reports whether in's lowering has a tail.
func needsExt(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpSelect, ir.OpCall:
		return true
	case ir.OpGEP:
		return slices.ContainsFunc(in.Args[1:], func(x ir.Value) bool { _, c := x.(*ir.Const); return !c })
	case ir.OpBr, ir.OpCondBr:
		return slices.ContainsFunc(in.Succs, func(b *ir.Block) bool { return b.Instrs[0].Op == ir.OpPhi })
	}
	return false
}

// predecode lowers l's function. The result depends on the module alone; it
// lives on inside the cfunc compiled from it, whose cold paths keep pointers
// into its code slab (see VM.bind).
func (p *Program) predecode(l *funcLayout) *pfunc {
	f := l.fn
	d := pdecoder{Program: p, l: l, pf: &pfunc{blocks: make([][]pinstr, len(f.Blocks))}}
	nCode, nExt, nArgs := 0, 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs[len(b.Phis()):] {
			nCode++
			if needsExt(in) {
				nExt++
				if in.Op == ir.OpCall {
					nArgs += len(in.Args)
				}
			}
		}
	}
	code := make([]pinstr, nCode)
	d.exts, d.args = make([]pext, nExt), make([]poperand, nArgs)
	for bi, b := range f.Blocks {
		body := b.Instrs[len(b.Phis()):]
		d.pf.blocks[bi], code = code[:len(body):len(body)], code[len(body):]
		for i, in := range body {
			d.instr(&d.pf.blocks[bi][i], b, in)
		}
	}
	return d.pf
}

// edgeCopies lowers the phis of b for the edge prev->b: each selects the
// operand whose Preds entry is prev.
func (d *pdecoder) edgeCopies(prev, b *ir.Block) []pcopy {
	phis := b.Phis()
	if len(phis) == 0 {
		return nil
	}
	d.pf.maxPhis = max(d.pf.maxPhis, len(phis))
	copies := make([]pcopy, len(phis))
	for i, phi := range phis {
		j := slices.Index(phi.Preds, prev) // Verify: every edge has an incoming
		copies[i] = pcopy{dst: d.l.slotOf[phi.ID], src: d.operand(phi.Args[j])}
	}
	return copies
}

// operand resolves one ir.Value into a poperand.
func (d *pdecoder) operand(x ir.Value) poperand {
	switch c := x.(type) {
	case *ir.Const:
		if c.Typ.IsFloat() {
			return poperand{kind: pkImm, imm: math.Float64bits(c.Float)}
		}
		return poperand{kind: pkImm, imm: uint64(c.Int)}
	case *ir.Global:
		return poperand{kind: pkGlobal, idx: d.globalIdx[c]}
	case *ir.Func:
		return poperand{kind: pkFunc, idx: d.funcIdx[c]}
	default:
		return poperand{kind: pkSlot, idx: d.l.slot(x)}
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

// instr lowers in, a non-phi, possibly-terminator instruction of block b,
// into pi, a zeroed element of the function's code slab.
func (d *pdecoder) instr(pi *pinstr, b *ir.Block, in *ir.Instr) {
	pi.op, pi.cost, pi.dst, pi.raw = in.Op, uint8(opCycles[in.Op]), -1, in
	if hasSlot(in) {
		pi.dst = d.l.slotOf[in.ID]
	}
	if pi.ext = &noExt; needsExt(in) {
		pi.ext, d.exts = &d.exts[0], d.exts[1:]
	}
	opnd := func(i int) poperand { return d.operand(in.Args[i]) }

	switch {
	case in.Op.IsBinary():
		pi.a, pi.b = opnd(0), opnd(1)
		pi.bits = uint8(in.Typ.Bits)

	case in.Op == ir.OpICmp, in.Op == ir.OpFCmp:
		pi.a, pi.b = opnd(0), opnd(1)
		if t := in.Args[0].Type(); in.Pred >= ir.PredULT && t.IsInt() && t.Bits < 64 {
			pi.maskCmp = true // an unsigned predicate on a narrow integer
			pi.srcBits = uint8(t.Bits)
		}

	case in.Op.IsCast():
		pi.a = opnd(0)
		pi.bits = uint8(in.Typ.Bits)
		pi.srcBits = uint8(in.Args[0].Type().Bits)

	case in.Op == ir.OpAlloca:
		pi.a = opnd(0)
		pi.imm = uint64(in.Elem.Size())

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
			if i > 0 && typ.Kind == ir.StructKind {
				c := idxV.(*ir.Const) // Verify: an in-range constant
				pi.imm += uint64(typ.FieldOffset(int(c.Int)))
				typ = typ.Fields[c.Int]
				continue
			}
			if i > 0 && typ.Kind == ir.ArrayKind {
				typ = typ.Elem
			}
			if c, isConst := idxV.(*ir.Const); isConst {
				pi.imm += uint64(c.Int * typ.Size())
			} else {
				pi.ext.gepSteps = append(pi.ext.gepSteps, pgepStep{op: d.operand(idxV), stride: typ.Size()})
			}
		}

	case in.Op == ir.OpSelect:
		pi.a, pi.b, pi.ext.c = opnd(0), opnd(1), opnd(2)

	case in.Op == ir.OpGuard:
		pi.kind = in.Kind
		pi.a = opnd(0)
		if len(in.Args) > 1 {
			pi.b = opnd(1)
		}

	case in.Op == ir.OpCall:
		pi.calleeIdx = d.funcIdx[in.Callee]
		n := len(in.Args)
		pi.ext.args, d.args = d.args[:n:n], d.args[n:]
		for i := range in.Args {
			pi.ext.args[i] = opnd(i)
		}

	case in.Op == ir.OpBr, in.Op == ir.OpCondBr:
		if in.Op == ir.OpCondBr {
			pi.a = opnd(0)
			pi.succ1 = int32(in.Succs[1].Idx)
		}
		pi.succ0 = int32(in.Succs[0].Idx)
		if pi.ext != &noExt {
			pi.ext.copies0 = d.edgeCopies(b, in.Succs[0])
			if in.Op == ir.OpCondBr {
				pi.ext.copies1 = d.edgeCopies(b, in.Succs[1])
			}
		}

	case in.Op == ir.OpRet:
		if pi.hasRet = len(in.Args) == 1; pi.hasRet {
			pi.a = opnd(0)
		}

	case in.Op == ir.OpUnreachable:
		// nothing beyond raw

	default:
		panic(fmt.Sprintf("vm: predecode: no lowering for %s (module not verified?)", in))
	}
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
