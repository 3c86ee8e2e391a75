package vm

import (
	"fmt"
	"math"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/runtime"
)

// The predecoded execution engine. callFunc interprets *ir.Instr values
// directly: every operand read is an interface type switch plus (for SSA
// values) a map lookup, every instruction execution allocates a `set`
// closure, and every taken branch re-discovers the incoming phi edge by
// scanning phi.Preds. None of that work depends on runtime state, so
// pcallFunc lowers each function once — on its first call — into a flat
// array-of-structs form with resolved register slots, immediate constants,
// precomputed GEP strides, direct successor-block indices, and per-edge phi
// copy lists. The dispatch loop then runs on integer indices only.
//
// The lowering is host-speed only: instruction counts, modeled cycles, the
// cycle profile, guard evaluator state, and runtime callback order are
// byte-identical with the baseline interpreter (the engine-parity
// differential tests in predecode_test.go pin this).

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
// points at the source instruction for cold paths (faults, error messages,
// and the execInstr fallback).
type pinstr struct {
	op       ir.Op
	fallback bool // true: execute raw via execInstr (rare, exotic shapes)
	cost     uint8
	dst      int32 // result slot, -1 when the op produces no value

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

// predecode lowers l's function. The result depends on the module alone, so
// it is a Program part: built by the first VM that calls the function and
// shared from then on (see VM.bind).
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
			found := false
			for j, pb := range phi.Preds {
				if pb == prev {
					copies[i] = pcopy{dst: int32(l.slotOf[phi]), src: p.pdecodeOperand(l, phi.Args[j])}
					found = true
					break
				}
			}
			if !found {
				// Verified modules always have the edge; mirror the
				// baseline's runtime error through a fallback phi.
				copies[i] = pcopy{dst: int32(l.slotOf[phi]), src: poperand{kind: pkImm}}
			}
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

// pval reads a resolved operand. The pkGlobal/pkFunc indirection through
// the phys tables (rebuilt by onMove) keeps kernel-initiated moves visible,
// matching the baseline's live map lookups.
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
		n := in.Elem.Size()
		if n != 1 && n != 2 && n != 4 && n != 8 {
			pi.fallback = true // keep the baseline's exec-time panic path
			break
		}
		pi.width = uint8(n)
		pi.signed = in.Elem.IsInt()
		pi.srcBits = uint8(in.Elem.Bits)

	case in.Op == ir.OpStore:
		pi.a, pi.b = opnd(0), opnd(1)
		n := in.Args[0].Type().Size()
		if n != 1 && n != 2 && n != 4 && n != 8 {
			pi.fallback = true
			break
		}
		pi.width = uint8(n)

	case in.Op == ir.OpGEP:
		pi.a = opnd(0)
		typ := in.Elem
		ok := true
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
				c, isConst := idxV.(*ir.Const)
				if !isConst {
					ok = false // dynamic struct index: type walk needs the value
					break
				}
				pi.gepConst += uint64(typ.FieldOffset(int(c.Int)))
				typ = typ.Fields[c.Int]
			default:
				pi.gepAdd(p, l, idxV, typ.Size())
			}
			if !ok {
				break
			}
		}
		if !ok {
			pi.fallback = true
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
		pi.fallback = true
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

// pcall interprets one activation through the predecoded form. Control
// flow, accounting, safepoint placement, and phi timing mirror callFunc
// exactly: the safepoint at a block's head runs BEFORE that block's phi
// copies are applied, so a move injected at the safepoint patches the
// frame slots the copies then read — the same order the baseline gives.
func (v *VM) pcall(t *thread, fb *funcBinding, args []uint64) (uint64, error) {
	f, pf := fb.fn, fb.pf
	fb.prof.Calls++
	fr := &frame{fb: fb, regs: make([]uint64, fb.nSlots), spSave: t.sp}
	copy(fr.regs, args) // params occupy slots 0..len(Params)-1 in order
	t.frames = append(t.frames, fr)
	defer t.popFrame(fr)
	if len(t.frames) > 10000 {
		return 0, fmt.Errorf("vm: call stack overflow in @%s", f.Name)
	}
	var tmp []uint64
	if pf.maxPhis > 0 {
		tmp = make([]uint64, pf.maxPhis)
	}
	var pending []pcopy
	bi := int32(0)

blockLoop:
	for {
		if err := t.safepoint(); err != nil {
			return 0, err
		}
		if len(pending) > 0 {
			for i := range pending {
				tmp[i] = v.pval(fr, pending[i].src)
			}
			for i := range pending {
				fr.regs[pending[i].dst] = tmp[i]
			}
			v.Instrs += uint64(len(pending))
			fb.prof.Instrs += uint64(len(pending))
			pending = nil
		}
		code := pf.blocks[bi].code
		for ci := range code {
			in := &code[ci]
			v.Instrs++
			c := uint64(in.cost)
			v.Cycles += c
			v.Prof.Cat[obs.CatCompute] += c
			fb.prof.Instrs++
			fb.prof.Cycles += c

			if in.fallback {
				if err := v.execInstr(t, fr, in.raw); err != nil {
					return 0, err
				}
				continue
			}

			switch in.op {
			case ir.OpBr:
				pending, bi = in.copies0, in.succ0
				continue blockLoop

			case ir.OpCondBr:
				if v.pval(fr, in.a)&1 != 0 {
					pending, bi = in.copies0, in.succ0
				} else {
					pending, bi = in.copies1, in.succ1
				}
				continue blockLoop

			case ir.OpRet:
				if in.args != nil {
					return v.pval(fr, in.a), nil
				}
				return 0, nil

			case ir.OpUnreachable:
				return 0, fmt.Errorf("vm: reached unreachable in @%s", f.Name)

			case ir.OpICmp:
				a, b := v.pval(fr, in.a), v.pval(fr, in.b)
				if in.maskCmp {
					a, b = maskToWidth(a, int(in.srcBits)), maskToWidth(b, int(in.srcBits))
				}
				fr.regs[in.dst] = boolBit(icmp(in.pred, a, b))

			case ir.OpFCmp:
				x := math.Float64frombits(v.pval(fr, in.a))
				y := math.Float64frombits(v.pval(fr, in.b))
				fr.regs[in.dst] = boolBit(fcmp(in.pred, x, y))

			case ir.OpTrunc:
				fr.regs[in.dst] = uint64(signExtend(v.pval(fr, in.a), int(in.bits)))
			case ir.OpZExt:
				fr.regs[in.dst] = maskToWidth(v.pval(fr, in.a), int(in.srcBits))
			case ir.OpSExt:
				fr.regs[in.dst] = uint64(signExtend(v.pval(fr, in.a), int(in.srcBits)))
			case ir.OpPtrToInt, ir.OpIntToPtr:
				fr.regs[in.dst] = v.pval(fr, in.a)
			case ir.OpSIToFP:
				fr.regs[in.dst] = math.Float64bits(float64(int64(v.pval(fr, in.a))))
			case ir.OpFPToSI:
				fr.regs[in.dst] = maskSigned(int64(math.Float64frombits(v.pval(fr, in.a))), int(in.bits))

			case ir.OpAlloca:
				count := int64(v.pval(fr, in.a))
				size := alignTo(uint64(count)*in.elemSize, heapAlign)
				if t.sp < t.stackBase+size {
					return 0, &Fault{Addr: t.sp - size, Size: size, Perm: guard.PermRW, Msg: "stack overflow"}
				}
				t.sp -= size
				if t.sp < t.minSP {
					t.minSP = t.sp
				}
				if in.dst >= 0 {
					fr.regs[in.dst] = t.sp
				}

			case ir.OpLoad:
				paddr, err := v.pdataAddr(fr, in.a, uint64(in.width), guard.PermRead)
				if err != nil {
					return 0, err
				}
				raw := v.kern.Mem.LoadN(paddr, int(in.width))
				if in.signed {
					raw = uint64(signExtend(raw, int(in.srcBits)))
				}
				if in.dst >= 0 {
					fr.regs[in.dst] = raw
				}

			case ir.OpStore:
				val := v.pval(fr, in.a)
				paddr, err := v.pdataAddr(fr, in.b, uint64(in.width), guard.PermWrite)
				if err != nil {
					return 0, err
				}
				v.kern.Mem.StoreN(paddr, val, int(in.width))

			case ir.OpGEP:
				addr := v.pval(fr, in.a) + in.gepConst
				for si := range in.gepSteps {
					st := &in.gepSteps[si]
					addr += uint64(int64(v.pval(fr, st.op)) * st.stride)
				}
				if in.dst >= 0 {
					fr.regs[in.dst] = addr
				}

			case ir.OpSelect:
				var r uint64
				if v.pval(fr, in.a)&1 != 0 {
					r = v.pval(fr, in.b)
				} else {
					r = v.pval(fr, in.c)
				}
				if in.dst >= 0 {
					fr.regs[in.dst] = r
				}

			case ir.OpGuard:
				if err := v.pexecGuard(t, fr, in); err != nil {
					return 0, err
				}

			case ir.OpCall:
				cargs := make([]uint64, len(in.args))
				for i := range in.args {
					cargs[i] = v.pval(fr, in.args[i])
				}
				var ret uint64
				var err error
				if in.callee.IsDecl() {
					ret, err = v.callBuiltin(t, in.callee, cargs)
				} else {
					ret, err = v.callIdx(t, in.calleeIdx, cargs)
				}
				if err != nil {
					return 0, err
				}
				if in.dst >= 0 {
					fr.regs[in.dst] = ret
				}

			default:
				// Binops: float ops carry their own opcode range.
				a, b := v.pval(fr, in.a), v.pval(fr, in.b)
				if in.op >= ir.OpFAdd && in.op <= ir.OpFDiv {
					x, y := math.Float64frombits(a), math.Float64frombits(b)
					var r float64
					switch in.op {
					case ir.OpFAdd:
						r = x + y
					case ir.OpFSub:
						r = x - y
					case ir.OpFMul:
						r = x * y
					case ir.OpFDiv:
						r = x / y
					}
					fr.regs[in.dst] = math.Float64bits(r)
					continue
				}
				r, err := intBinop(in.op, a, b, int(in.bits))
				if err != nil {
					return 0, fmt.Errorf("vm: @%s: %s: %w", f.Name, in.raw, err)
				}
				if in.dst >= 0 {
					fr.regs[in.dst] = r
				}
			}
		}
		// A verified block always ends in a terminator; reaching here means
		// the module changed under us.
		return 0, fmt.Errorf("vm: block without terminator in @%s", f.Name)
	}
}

// pdataAddr is dataAddr over a predecoded operand: translate with one
// swap-in retry on a poisoned pointer.
func (v *VM) pdataAddr(fr *frame, opnd poperand, size uint64, perm guard.Perm) (uint64, error) {
	addr := v.pval(fr, opnd)
	paddr, err := v.translate(addr, size, perm)
	if err == nil {
		return paddr, nil
	}
	if slot, _, ok := runtime.DecodeSwapPoison(addr); ok {
		if serr := v.swapIn(slot); serr != nil {
			return 0, &Fault{Addr: addr, Size: size, Perm: perm, Msg: "swap-in failed: " + serr.Error()}
		}
		return v.translate(v.pval(fr, opnd), size, perm)
	}
	return 0, err
}

// pexecGuard evaluates a predecoded guard: the hot path is one xcache probe
// (or one evaluator walk); misses and faults share the baseline's cold
// path.
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
	if v.checkGuard(t, addr, size, perm) {
		return nil
	}
	return v.guardMiss(fr, in.raw, addr, size, perm, func() uint64 { return v.pval(fr, in.a) })
}
