package vm

import (
	"fmt"
	"math"
	"slices"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/passes"
	"carat/internal/runtime"
)

// Per-instruction base cycle costs. Simple in-order-ish model: ALU ops are
// single-cycle, multiplies and divides cost their usual latencies, loads
// cost an L1 hit. The TLB hierarchy (traditional mode) and the guard
// evaluator (CARAT mode) add their own cycles on top.
var opCycles = [...]uint64{
	ir.OpAdd: 1, ir.OpSub: 1, ir.OpMul: 3, ir.OpSDiv: 20, ir.OpSRem: 20,
	ir.OpUDiv: 20, ir.OpURem: 20,
	ir.OpAnd: 1, ir.OpOr: 1, ir.OpXor: 1, ir.OpShl: 1, ir.OpLShr: 1, ir.OpAShr: 1,
	ir.OpFAdd: 3, ir.OpFSub: 3, ir.OpFMul: 4, ir.OpFDiv: 13,
	ir.OpICmp: 1, ir.OpFCmp: 2,
	ir.OpTrunc: 1, ir.OpZExt: 1, ir.OpSExt: 1, ir.OpPtrToInt: 1, ir.OpIntToPtr: 1,
	ir.OpSIToFP: 4, ir.OpFPToSI: 4,
	ir.OpAlloca: 1, ir.OpLoad: 4, ir.OpStore: 1, ir.OpGEP: 1,
	ir.OpPhi: 0, ir.OpSelect: 1, ir.OpCall: 3,
	ir.OpBr: 1, ir.OpCondBr: 1, ir.OpRet: 1, ir.OpUnreachable: 0,
	ir.OpGuard: 0, // charged through the guard evaluator
}

// callFunc interprets one function activation on thread t: the reference
// interpreter, straight over the IR.
func (v *VM) callFunc(t *thread, fb *funcBinding, args []uint64) (uint64, error) {
	f := fb.fn
	fb.prof.Calls++
	fr := &frame{fb: fb, regs: make([]uint64, fb.nSlots), spSave: t.sp}
	copy(fr.regs, args) // params occupy slots 0..len(Params)-1 in order
	t.frames = append(t.frames, fr)
	defer t.popFrame(fr)
	if len(t.frames) > 10000 {
		return 0, fmt.Errorf("vm: call stack overflow in @%s", f.Name)
	}

	block := f.Entry()
	var prev *ir.Block
	for {
		if v.gate.due(v.Instrs, v.Cycles) {
			if err := t.act(); err != nil {
				return 0, err
			}
		}
		// Phase 1: evaluate phis in parallel against the incoming edge.
		phis := block.Phis()
		if len(phis) > 0 {
			vals := make([]uint64, len(phis))
			for i, phi := range phis {
				// Verify: no phi in the entry block, an incoming for every edge.
				vals[i] = v.val(fr, phi.Args[slices.Index(phi.Preds, prev)])
			}
			for i, phi := range phis {
				fr.regs[fb.slotOf[phi.ID]] = vals[i]
			}
			v.Instrs += uint64(len(phis))
			fb.prof.Instrs += uint64(len(phis))
		}

		for _, in := range block.Instrs[len(phis):] {
			v.Instrs++
			c := opCycles[in.Op]
			v.Cycles += c
			v.Prof.Cat[obs.CatCompute] += c
			fb.prof.Instrs++
			fb.prof.Cycles += c
			switch in.Op {
			case ir.OpBr:
				prev, block = block, in.Succs[0]
			case ir.OpCondBr:
				if v.val(fr, in.Args[0])&1 != 0 {
					prev, block = block, in.Succs[0]
				} else {
					prev, block = block, in.Succs[1]
				}
			case ir.OpRet:
				if len(in.Args) == 1 {
					return v.val(fr, in.Args[0]), nil
				}
				return 0, nil
			case ir.OpUnreachable:
				return 0, fmt.Errorf("vm: reached unreachable in @%s", f.Name)
			default:
				if err := v.execInstr(t, fr, in); err != nil {
					return 0, err
				}
				continue
			}
			break // terminator taken: next block
		}
	}
}

// val evaluates an operand. Globals and functions are resolved live so
// that kernel-initiated moves are observed immediately.
func (v *VM) val(fr *frame, x ir.Value) uint64 {
	switch c := x.(type) {
	case *ir.Const:
		return constBits(c)
	case *ir.Global:
		return v.globalPhys[v.prog.globalIdx[c]]
	case *ir.Func:
		return v.funcPhys[v.prog.funcIdx[c]]
	default:
		return fr.regs[fr.fb.slot(x)]
	}
}

func (v *VM) execInstr(t *thread, fr *frame, in *ir.Instr) error {
	fb := fr.fb
	set := func(val uint64) {
		if hasSlot(in) {
			fr.regs[fb.slotOf[in.ID]] = val
		}
	}
	switch {
	case in.Op.IsBinary():
		a, b := v.val(fr, in.Args[0]), v.val(fr, in.Args[1])
		if in.Op >= ir.OpFAdd && in.Op <= ir.OpFDiv {
			x, y := math.Float64frombits(a), math.Float64frombits(b)
			var r float64
			switch in.Op {
			case ir.OpFAdd:
				r = x + y
			case ir.OpFSub:
				r = x - y
			case ir.OpFMul:
				r = x * y
			case ir.OpFDiv:
				r = x / y
			}
			set(math.Float64bits(r))
			return nil
		}
		r, err := ir.IntBinop(in.Op, a, b, in.Typ.Bits)
		if err != nil {
			return fmt.Errorf("vm: @%s: %s: %w", fr.fb.fn.Name, in, err)
		}
		set(r)
		return nil

	case in.Op == ir.OpICmp:
		a, b := v.val(fr, in.Args[0]), v.val(fr, in.Args[1])
		bits := 64
		if t := in.Args[0].Type(); t.IsInt() {
			bits = t.Bits
		}
		set(boolBit(ir.ICmpAt(in.ICmpPred(), a, b, bits)))
		return nil

	case in.Op == ir.OpFCmp:
		x := math.Float64frombits(v.val(fr, in.Args[0]))
		y := math.Float64frombits(v.val(fr, in.Args[1]))
		set(boolBit(fcmp(in.Pred, x, y)))
		return nil

	case in.Op.IsCast():
		a := v.val(fr, in.Args[0])
		switch in.Op {
		case ir.OpTrunc:
			set(ir.Narrow(a, in.Typ.Bits))
		case ir.OpZExt:
			// Zero-extension reads the source's width-masked bits.
			set(ir.MaskToWidth(a, in.Args[0].Type().Bits))
		case ir.OpSExt:
			set(uint64(ir.SignExtend(a, in.Args[0].Type().Bits)))
		case ir.OpPtrToInt, ir.OpIntToPtr:
			set(a)
		case ir.OpSIToFP:
			set(math.Float64bits(float64(ir.SignExtend(a, in.Args[0].Type().Bits))))
		case ir.OpFPToSI:
			set(ir.Narrow(uint64(int64(math.Float64frombits(a))), in.Typ.Bits))
		}
		return nil

	case in.Op == ir.OpAlloca:
		count := int64(v.val(fr, in.Args[0]))
		size := alignTo(uint64(count)*uint64(in.Elem.Size()), heapAlign)
		if t.sp < t.stackBase+size {
			return &Fault{Addr: t.sp - size, Size: size, Perm: guard.PermRW, Msg: "stack overflow"}
		}
		t.sp -= size
		if t.sp < t.minSP {
			t.minSP = t.sp
		}
		set(t.sp)
		return nil

	case in.Op == ir.OpLoad:
		n := int(in.Elem.Size())
		paddr, err := v.dataAddr(fr, in, 0, uint64(n), guard.PermRead)
		if err != nil {
			return err
		}
		raw := v.kern.Mem.LoadN(paddr, n) // Verify: n is 1, 2, 4 or 8
		if in.Elem.IsInt() {
			raw = ir.Narrow(raw, in.Elem.Bits)
		}
		set(raw)
		return nil

	case in.Op == ir.OpStore:
		val := v.val(fr, in.Args[0])
		n := int(in.Args[0].Type().Size())
		paddr, err := v.dataAddr(fr, in, 1, uint64(n), guard.PermWrite)
		if err != nil {
			return err
		}
		v.kern.Mem.StoreN(paddr, val, n)
		return nil

	case in.Op == ir.OpGEP:
		set(v.gepAddr(fr, in))
		return nil

	case in.Op == ir.OpSelect:
		if v.val(fr, in.Args[0])&1 != 0 {
			set(v.val(fr, in.Args[1]))
		} else {
			set(v.val(fr, in.Args[2]))
		}
		return nil

	case in.Op == ir.OpGuard:
		return v.execGuard(t, fr, in)

	case in.Op == ir.OpCall:
		var buf [maxStackArgs]uint64
		args := argSlice(&buf, len(in.Args))
		for i, a := range in.Args {
			args[i] = v.val(fr, a)
		}
		ret, err := v.call(t, in.Callee, args)
		if err != nil {
			return err
		}
		set(ret)
		return nil
	}
	return fmt.Errorf("vm: unimplemented op %v", in.Op)
}

// gepAddr computes a GEP's address with the same stepping rules the
// analysis package uses (first index scales by Elem; later indices walk
// into aggregates — a struct level by an in-range constant, which ir.Verify
// guarantees).
func (v *VM) gepAddr(fr *frame, in *ir.Instr) uint64 {
	addr := v.val(fr, in.Args[0])
	typ := in.Elem
	for i, idxV := range in.Args[1:] {
		idx := int64(v.val(fr, idxV))
		if i == 0 {
			addr += uint64(idx * typ.Size())
			continue
		}
		switch typ.Kind {
		case ir.ArrayKind:
			typ = typ.Elem
			addr += uint64(idx * typ.Size())
		case ir.StructKind:
			addr += uint64(typ.FieldOffset(int(idx)))
			typ = typ.Fields[idx]
		default:
			addr += uint64(idx * typ.Size())
		}
	}
	return addr
}

// execGuard evaluates a CARAT guard against the kernel region set.
func (v *VM) execGuard(t *thread, fr *frame, in *ir.Instr) error {
	var addr, size uint64
	var perm guard.Perm
	switch in.Kind {
	case ir.GuardLoad, ir.GuardRange:
		addr, size, perm = v.val(fr, in.Args[0]), v.val(fr, in.Args[1]), guard.PermRead
	case ir.GuardStore, ir.GuardRangeStore:
		addr, size, perm = v.val(fr, in.Args[0]), v.val(fr, in.Args[1]), guard.PermWrite
	case ir.GuardCall:
		foot := v.val(fr, in.Args[1])
		if foot == 0 {
			foot = passes.DefaultStackFootprint
		}
		addr, size, perm = t.sp-foot, foot, guard.PermRW
	}
	if int64(size) <= 0 {
		return nil // zero-trip range guard: nothing will be accessed
	}
	// t.xc is nil here: the reference interpreter walks the evaluator every
	// time, which is what makes it a check on the cache's replayed costs.
	if v.eval.CheckCached(t.xc, addr, size, perm) {
		return nil
	}
	return v.guardMiss(fr, in, addr, size, perm, func() uint64 { return v.val(fr, in.Args[0]) })
}

// guardMiss is the shared cold path for a failed guard check (both
// engines). A failed guard aborts to the kernel (§4.1.1). A swapped-pointer
// poison address triggers the swap-in path: the kernel restores the
// allocation, the runtime patches every poisoned pointer forward
// (including the frame slot the guard read its address from), and the
// guard retries. reval re-reads the guard's address operand post-patch.
func (v *VM) guardMiss(fr *frame, in *ir.Instr, addr, size uint64, perm guard.Perm, reval func() uint64) error {
	v.tr.Instant("guard.fault", "guard",
		obs.A("addr", addr), obs.A("size", size), obs.A("perm", perm.String()))
	if slot, _, ok := runtime.DecodeSwapPoison(addr); ok {
		if _, err := v.swapIn(slot); err != nil {
			return &Fault{Addr: addr, Size: size, Perm: perm, Msg: "swap-in failed: " + err.Error()}
		}
		retryAddr := reval()
		if v.eval.Check(retryAddr, size, perm) {
			return nil
		}
		return &Fault{Addr: retryAddr, Size: size, Perm: perm, Msg: "guard rejected access after swap-in"}
	}
	msg := "guard rejected access"
	if kernel.IsPoison(addr) {
		msg = "access to unavailable (poisoned) page"
	}
	if in.Kind == ir.GuardCall {
		msg = "stack footprint check failed"
	}
	return &Fault{Addr: addr, Size: size, Perm: perm, Msg: msg}
}

// swapIn services a swapped-pointer guard fault: allocate a destination in
// the heap and have the runtime restore and re-patch (§2.2's demand
// swap-in, with the kernel's role played by the heap grant). It returns the
// allocation's new base.
func (v *VM) swapIn(slot uint64) (uint64, error) {
	length, err := v.rt.SwappedLen(slot)
	if err != nil {
		return 0, err
	}
	dst := v.heap.alloc(length)
	if dst == 0 {
		return 0, fmt.Errorf("heap exhausted during swap-in")
	}
	return dst, v.rt.SwapIn(slot, dst)
}

// dataAddr resolves the address operand of a load or store. When the
// access traps on a swapped-pointer poison address — the hardware fault
// that is the paper's mechanism for regaining control on unavailable
// memory (§2.2) — the kernel swaps the allocation back in, the runtime
// patches every poisoned pointer (including the frame slot the operand
// lives in), and the access retries once.
func (v *VM) dataAddr(fr *frame, in *ir.Instr, argIdx int, size uint64, perm guard.Perm) (uint64, error) {
	addr := v.val(fr, in.Args[argIdx])
	paddr, err := v.translate(addr, size, perm)
	if err == nil {
		return paddr, nil
	}
	if slot, _, ok := runtime.DecodeSwapPoison(addr); ok {
		if _, serr := v.swapIn(slot); serr != nil {
			return 0, &Fault{Addr: addr, Size: size, Perm: perm, Msg: "swap-in failed: " + serr.Error()}
		}
		addr = v.val(fr, in.Args[argIdx])
		return v.translate(addr, size, perm)
	}
	return 0, err
}

// translate maps a program address to a physical address, charging
// translation costs. In CARAT mode this is the identity (physical
// addressing); the bounds check stands in for the bus fault real hardware
// would raise. In traditional mode it walks the TLB hierarchy with
// demand paging.
func (v *VM) translate(addr, size uint64, perm guard.Perm) (uint64, error) {
	if v.cfg.Mode == ModeCARAT {
		if !v.kern.Mem.InBounds(addr, size) {
			return 0, &Fault{Addr: addr, Size: size, Perm: perm, Msg: "physical access out of bounds"}
		}
		return addr, nil
	}
	pa, cyc, ok := v.hier.Translate(addr)
	v.Cycles += cyc
	v.Prof.Cat[obs.CatPagewalk] += cyc
	if !ok {
		// Demand paging: a fault on a region the process owns maps the
		// page (identity) and retries; anything else is a real fault.
		if v.proc.Regions.Check(addr, 1, guard.PermRead) {
			if v.cfg.Paging != nil {
				v.cfg.Paging.Touch(addr)
			}
			v.hier.PT.Map(addr>>12, addr>>12)
			v.Cycles += 600 // page-fault handling cost
			v.Prof.Cat[obs.CatPageFault] += 600
			v.tr.Instant("page.demand_alloc", "paging", obs.A("addr", addr))
			pa2, cyc2, ok2 := v.hier.Translate(addr)
			v.Cycles += cyc2
			v.Prof.Cat[obs.CatPagewalk] += cyc2
			if ok2 {
				return pa2, nil
			}
		}
		return 0, &Fault{Addr: addr, Size: size, Perm: perm, Msg: "page fault"}
	}
	return pa, nil
}

// maxStackArgs is the most arguments a call site passes from an array on its
// Go stack; every builtin takes at most two.
const maxStackArgs = 4

// argSlice returns n argument slots: buf's when they fit, a new slice
// otherwise. buf stays on the caller's Go stack because nothing keeps the
// slice past the call: callBuiltin reads values, and callFunc and ccall copy
// them into the new frame.
func argSlice(buf *[maxStackArgs]uint64, n int) []uint64 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]uint64, n)
}

// callBuiltin dispatches declared (external) functions to the VM runtime.
func (v *VM) callBuiltin(t *thread, f *ir.Func, args []uint64) (uint64, error) {
	switch f.Name {
	case ir.FnMalloc:
		addr := v.heap.alloc(args[0])
		if addr == 0 {
			return 0, fmt.Errorf("vm: out of heap memory (malloc %d)", args[0])
		}
		v.Cycles += 30
		v.Prof.Cat[obs.CatAlloc] += 30
		v.observeAlloc(args[0])
		return addr, nil
	case ir.FnCalloc:
		n := args[0] * args[1]
		addr := v.heap.alloc(n)
		if addr == 0 {
			return 0, fmt.Errorf("vm: out of heap memory (calloc %d)", n)
		}
		if err := v.kern.Mem.Zero(addr, n); err != nil {
			return 0, err
		}
		v.Cycles += 30 + n/16
		v.Prof.Cat[obs.CatAlloc] += 30 + n/16
		v.observeAlloc(n)
		return addr, nil
	case ir.FnFree:
		if args[0] == 0 {
			return 0, nil // free(NULL)
		}
		if err := v.heap.free(args[0]); err != nil {
			return 0, err
		}
		v.Cycles += 25
		v.Prof.Cat[obs.CatAlloc] += 25
		return 0, nil
	case ir.FnTrackAlloc:
		if err := v.rt.TrackAlloc(args[0], args[1]); err != nil {
			return 0, fmt.Errorf("vm: %w", err)
		}
		return 0, nil
	case ir.FnTrackFree:
		ptr := args[0]
		if slot, off, ok := runtime.DecodeSwapPoison(ptr); ok {
			// Freeing a swapped-out allocation uses its pointer: swap it in
			// first, as a guard on the pointer would. The swap-in patches the
			// register the free call that follows reads.
			base, err := v.swapIn(slot)
			if err != nil {
				return 0, fmt.Errorf("vm: swap-in before free: %w", err)
			}
			ptr = base + off
		}
		if err := v.rt.TrackFree(ptr); err != nil {
			return 0, fmt.Errorf("vm: %w", err)
		}
		return 0, nil
	case ir.FnTrackEscape:
		// The thread's escape batch: enqueue locally, drained at world
		// stops and at the end of the run (plus the size-triggered
		// self-flush).
		t.escBuf.Track(args[0], args[1])
		return 0, nil
	case ir.FnPrintI64:
		v.Output = append(v.Output, int64(args[0]))
		return 0, nil
	case ir.FnPrintF64:
		v.Output = append(v.Output, int64(math.Float64frombits(args[0])*1e6))
		return 0, nil
	}
	return 0, fmt.Errorf("vm: call to undefined external @%s", f.Name)
}

// --- scalar helpers ---

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func fcmp(p ir.Pred, a, b float64) bool {
	switch p {
	case ir.PredEQ:
		return a == b
	case ir.PredNE:
		return a != b
	case ir.PredLT, ir.PredULT:
		return a < b
	case ir.PredLE, ir.PredULE:
		return a <= b
	case ir.PredGT, ir.PredUGT:
		return a > b
	case ir.PredGE, ir.PredUGE:
		return a >= b
	}
	return false
}
