package vm

import (
	"fmt"
	"math"
	"slices"

	"carat/internal/guard"
	"carat/internal/ir"
	"carat/internal/kernel"
	"carat/internal/obs"
	"carat/internal/runtime"
)

// Closure compilation: the compiled engine's one lowering stage, and the form
// that executes. The reference interpreter (exec.go) walks *ir.Instr values
// directly: every operand read is an interface type switch plus a slot-table
// lookup, every taken branch re-discovers the incoming phi edge by scanning
// phi.Preds, and every instruction pays a switch dispatch and a five-counter
// accounting sequence. None of that depends on runtime state, so on a
// function's first call compileClosure walks its IR once and resolves all of
// it — operands to register indices, constants to a pool, result slots,
// widths, compare masks, GEP offsets and strides, successor blocks, per-edge
// phi copies — into chained Go closures, where every basic block becomes one
// superinstruction closure that fuses its straight-line body:
//
//   - per-instruction accounting is batched into one charge per "group"
//     (a maximal run of pure instructions, optionally ended by the single
//     observing instruction that can fault, trace, or reach a safepoint);
//   - compare+branch pairs collapse into a fused terminator;
//   - every load and store is one access step (compileAccess) in which the
//     guard and the address GEP are both optional: the guard that covers it
//     and the single-index GEP that feeds it fold into the step, and its fast
//     path goes straight to physical memory — behind one fused xcache probe
//     (guard.CheckTranslateCached) when guarded, behind a bounds compare when
//     the compiler removed the guard — with no separate translate, no
//     duplicate operand read and no flush;
//   - immediates and global/function addresses live in a per-function
//     constant pool laid out as extra registers.
//
// Each block closure returns the next block's closure directly, so there is
// no central dispatch loop — just a trampoline. A fused access's cold paths,
// guardCold and cdataAddr, read registers and end in the reference
// interpreter's guardMiss and translate; a guard that stands alone runs the
// reference's execGuard, which reads its operands off the IR.
//
// The lowering is total over verified modules: ir.Verify rejects every shape
// it has no form for (aggregate-width accesses, struct GEP indices that are
// not in-range constants, undefined opcodes), and NewProgram verifies before
// anything is lowered. A shape it still cannot lower is a bug, not an input.
//
// A compiled body is a pure function of the module: its closures capture
// operand indices, strides and successor blocks, never a VM, a thread, or an
// address. Everything a run contributes reaches them through the cenv. That
// makes a cfunc part of the Program (program.go) — shared by every VM loaded
// from it, on any goroutine — and independent of the region epoch:
//
//   - every memory access validates itself (xcache slots are epoch-stamped,
//     and every cold path goes through a guard walk and translate);
//   - the only baked addresses are the pool's global/function entries, which
//     the cfunc records as relocs. A page move that relocates a global or
//     code re-bakes each binding's pool and re-copies it into every live
//     closure frame (VM.repatchPools), with the world stopped, beside the
//     register patch of Figure 8 — the pool is one more escape of the
//     address, and a cold path that reads a pool register reads it patched.
//
// So compiled code survives moves and grants at full speed, and — every
// verified function being compilable — nothing ever leaves the engine: there
// is no deoptimization.
//
// All of this is host-speed only: instruction counts, modeled cycles, the
// cycle profile, guard evaluator state, and runtime callback order are
// byte-identical with the reference interpreter, which shares neither the
// lowering nor the xcache (closure_test.go and the engine-parity
// differential tests pin this).

// cenv is the per-activation state threaded through a compiled function's
// block closures: the closures themselves are VM-independent, so everything
// that belongs to this run — the VM, its evaluator and memory, the
// function's profile bucket — rides here, one load away.
//
// pendN/pendCyc accumulate instruction and cycle charges not yet applied to
// the VM-wide and per-function counters. Nothing on a block's fast path
// reads those counters, so charges defer across whole blocks and flush only
// where something reads them: a block head whose gate is due (gate.go), a
// guard walk, a call, Ret, and the branch of a step
// that is about to fault, swap in, page-walk or return an error. A step that
// merely could fault defers like any other.
type cenv struct {
	v       *VM
	t       *thread
	fr      *frame
	xc      *guard.XCache // t.xc, cached to skip a pointer chase per access
	eval    *guard.Evaluator
	mem     *kernel.PhysMem
	carat   bool    // CARAT mode: an unguarded access is a bounds compare
	ret     uint64  // return value, set by Ret terminators
	pending []ccopy // phi copies owed to the block about to run
	tmp     []uint64
	prof    *obs.FuncProfile
	pendN   uint64 // instruction charges not yet applied
	pendCyc uint64 // cycle charges not yet applied
}

// flush applies the deferred charges. Called at every point where something
// reads the counters; the reference interpreter's invariant — all
// instructions up to and including the observing one are charged before it
// executes — is restored exactly at each such point.
func (e *cenv) flush() {
	if e.pendN != 0 || e.pendCyc != 0 {
		v := e.v
		v.Instrs += e.pendN
		v.Cycles += e.pendCyc
		v.Prof.Cat[obs.CatCompute] += e.pendCyc
		e.prof.Instrs += e.pendN
		e.prof.Cycles += e.pendCyc
		e.pendN, e.pendCyc = 0, 0
	}
}

// open starts a step: the charge group it ends lands on the deferred
// counters and the group's pures run. A step whose instruction reads the
// counters whatever happens (a call, an unfused guard) flushes next; one that
// reads them only when it fails flushes on that branch.
func (e *cenv) open(segN, segCyc uint64, pures []cpure) {
	e.pendN += segN
	e.pendCyc += segCyc
	for _, p := range pures {
		p(e)
	}
}

// charge applies one instruction's accounting directly (the cold path of a
// fused access, after a flush, where the per-instruction order matters).
func (e *cenv) charge(cyc uint64) {
	v := e.v
	v.Instrs++
	v.Cycles += cyc
	v.Prof.Cat[obs.CatCompute] += cyc
	e.prof.Instrs++
	e.prof.Cycles += cyc
}

// ccopy is one compiled phi assignment: regs[dst] receives regs[src], with
// immediate/global sources resolved through the constant pool.
type ccopy struct {
	dst int32
	src cop
}

// cstep executes one fused step of a block body.
type cstep func(e *cenv) error

// cpure executes one pure (infallible, non-observing) instruction. Pure
// steps run inside a segment's batched charge closure with no per-step
// error check — by construction nothing they lower can fail.
type cpure func(e *cenv)

// cblock is one compiled basic block. run executes the block (pending phi
// copies, body steps) and returns the next block, or nil when the activation
// completed.
type cblock struct {
	run func(e *cenv) (*cblock, error)
}

// cfunc is a compiled function body. Constants (immediates, global and
// function addresses) live in a pool appended to the frame's register file
// at activation entry, so every compiled operand is a plain register index —
// no per-read branch on operand kind. Pool slots sit above the function's
// nSlots and are invisible to the move protocol's register patcher (which
// walks ptrSlots, all below nSlots).
//
// consts holds the pool as the module alone determines it: immediates in
// place, address entries zero and listed in relocs. A binding copies consts
// and bakes the relocs against its VM's address tables (VM.bakePool).
type cfunc struct {
	blocks  []cblock
	maxPhis int // widest phi set of any edge, sizes the copy scratch
	consts  []uint64
	relocs  []creloc
	shapes  [2][2]int32 // access steps compiled, by [guarded][GEP-fused] (TestAccessShapes)
}

// ccompiler is one function's closure compilation in flight: the cfunc it
// fills — all that is published — and what only compiling needs.
type ccompiler struct {
	*cfunc
	p     *Program
	l     *funcLayout
	imms  map[uint64]cop // pool registers of immediates, by value
	addrs map[uint64]cop // of address-table entries, by fn<<32 | index
}

// creloc names one pool entry that holds an address-table value: entry idx
// of VM.funcPhys when fn is set, of VM.globalPhys otherwise.
type creloc struct {
	pool int32 // index into consts
	idx  int32
	fn   bool
}

// cop is a compiled operand: an index into the activation's extended
// register file. SSA slots keep their indices; constants resolve to pool
// registers above nslots — so reading any operand is one branchless indexed
// load.
type cop int32

func (o cop) get(fr *frame) uint64 { return fr.regs[o] }

// constBits is a constant's register image: an integer's two's complement,
// a float's IEEE bits.
func constBits(c *ir.Const) uint64 {
	if c.Typ.IsFloat() {
		return math.Float64bits(c.Float)
	}
	return uint64(c.Int)
}

// sameValue reports whether two operands read the same value wherever they
// are read: one SSA value, global or function, or constants with equal bits.
func sameValue(x, y ir.Value) bool {
	cx, okx := x.(*ir.Const)
	cy, oky := y.(*ir.Const)
	return x == y || okx && oky && constBits(cx) == constBits(cy)
}

// operand resolves an operand to its register, interning constants into the
// pool by what they ARE (immediate bits, or which global or function),
// never by their current value: an immediate that happens to equal a
// global's load-time address must not follow that global when it moves. One
// word-keyed map per kind of identity, so an intern hashes eight bytes. The
// order of first uses is the pool's order.
func (cf *ccompiler) operand(x ir.Value) cop {
	index, key, reloc := cf.addrs, uint64(0), true
	r := creloc{pool: int32(len(cf.consts))}
	switch c := x.(type) {
	case *ir.Const:
		index, key, reloc = cf.imms, constBits(c), false
	case *ir.Global:
		r.idx = cf.p.globalIdx[c]
		key = uint64(r.idx)
	case *ir.Func:
		r.idx, r.fn = cf.p.funcIdx[c], true
		key = 1<<32 | uint64(r.idx)
	default:
		return cop(cf.l.slot(x))
	}
	if i, ok := index[key]; ok {
		return i
	}
	i := cop(cf.l.nSlots + len(cf.consts))
	if reloc {
		cf.relocs = append(cf.relocs, r)
		cf.consts = append(cf.consts, 0) // baked per binding
	} else {
		cf.consts = append(cf.consts, key)
	}
	index[key] = i
	return i
}

// dst is in's result register, -1 when it produces no value.
func (cf *ccompiler) dst(in *ir.Instr) int32 {
	if hasSlot(in) {
		return cf.l.slotOf[in.ID]
	}
	return -1
}

// cgep is one dynamic GEP index with its stride.
type cgep struct {
	op     cop
	stride int64
}

// gepFold resolves a GEP's address arithmetic against its types: it returns
// the byte offset its constant indices add up to and calls dyn with every
// dynamic index and its stride, in operand order. (ir.Verify: a struct
// level's index is an in-range constant.)
func gepFold(in *ir.Instr, dyn func(idx ir.Value, stride int64)) (off uint64) {
	typ := in.Elem
	for i, x := range in.Args[1:] {
		if i > 0 && typ.Kind == ir.StructKind {
			c := x.(*ir.Const)
			off += uint64(typ.FieldOffset(int(c.Int)))
			typ = typ.Fields[c.Int]
			continue
		}
		if i > 0 && typ.Kind == ir.ArrayKind {
			typ = typ.Elem
		}
		if c, isConst := x.(*ir.Const); isConst {
			off += uint64(c.Int * typ.Size())
		} else {
			dyn(x, typ.Size())
		}
	}
	return off
}

// dynIndices counts a GEP's dynamic indices (struct indices are constants).
func dynIndices(in *ir.Instr) int {
	n := 0
	for _, x := range in.Args[1:] {
		if _, isConst := x.(*ir.Const); !isConst {
			n++
		}
	}
	return n
}

// relocAddr is the current value of r's address-table entry.
func (v *VM) relocAddr(r creloc) uint64 {
	if r.fn {
		return v.funcPhys[r.idx]
	}
	return v.globalPhys[r.idx]
}

// bakePool (re)writes fb's pool relocs from the VM's current address tables
// and reports whether any entry changed.
func (v *VM) bakePool(fb *funcBinding) bool {
	changed := false
	for _, r := range fb.cf.relocs {
		if a := v.relocAddr(r); fb.pool[r.pool] != a {
			fb.pool[r.pool] = a
			changed = true
		}
	}
	return changed
}

// repatchPools runs when a move relocated a global or code, with the world
// stopped: every bound closure body's pool is re-baked, and every live
// closure frame — each mirrors its function's pool in regs[nslots:] — gets
// the fresh copy. The pool is one more escape of the moved address, patched
// where Figure 8 patches registers.
func (v *VM) repatchPools() {
	for i := range v.bound {
		if fb := &v.bound[i]; fb.cf != nil && v.bakePool(fb) {
			v.closureRepatches++
		}
	}
	if t := v.world.main; t != nil {
		for _, fr := range t.frames {
			if fb := fr.fb; fb.cf != nil {
				copy(fr.regs[fb.nSlots:], fb.pool)
			}
		}
	}
}

// ccall runs one activation through fb's compiled body. The frame prologue
// (profiling, frame push, alloca unwinding, depth check) is byte-identical
// with callFunc's; the body is the block trampoline.
func (v *VM) ccall(t *thread, fb *funcBinding, args []uint64) (uint64, error) {
	cf := fb.cf
	fb.prof.Calls++
	fr := &frame{fb: fb, regs: make([]uint64, fb.nSlots+len(fb.pool)), spSave: t.sp}
	copy(fr.regs, args) // params occupy slots 0..len(Params)-1 in order
	copy(fr.regs[fb.nSlots:], fb.pool)
	t.frames = append(t.frames, fr)
	defer t.popFrame(fr)
	if len(t.frames) > 10000 {
		return 0, fmt.Errorf("vm: call stack overflow in @%s", fb.fn.Name)
	}
	e := &cenv{v: v, t: t, fr: fr, xc: t.xc, eval: v.eval, mem: v.kern.Mem, prof: fb.prof, carat: v.cfg.Mode == ModeCARAT}
	if cf.maxPhis > 0 {
		e.tmp = make([]uint64, cf.maxPhis)
	}
	// The trampoline asks the gate at every block head on flushed plus deferred
	// counters, before the incoming edge's phi copies are charged: where the
	// reference interpreter asks. A head where nothing is due flushes nothing.
	blk := &cf.blocks[0]
	var err error
	for blk != nil {
		if v.gate.due(v.Instrs+e.pendN, v.Cycles+e.pendCyc) {
			e.flush()
			if err = t.act(); err != nil {
				return 0, err
			}
		}
		if blk, err = blk.run(e); err != nil {
			return 0, err
		}
	}
	return e.ret, nil
}

// guardCold is the cold path of a fused access's guard — an xcache probe that
// missed, or a size the fast path does not take: the evaluator walk (xcache
// fill), then the miss/fault path the reference interpreter shares. It reads
// the guard's address and size from registers; a pool register reads what
// the last move patched (repatchPools), as the reference's live lookup does.
func (v *VM) guardCold(t *thread, fr *frame, in *ir.Instr, addr, size cop, perm guard.Perm) error {
	a, n := addr.get(fr), size.get(fr)
	if int64(n) <= 0 {
		return nil
	}
	if v.eval.CheckCached(t.xc, a, n, perm) {
		return nil
	}
	return v.guardMiss(fr, in, a, n, perm, func() uint64 { return addr.get(fr) })
}

// cdataAddr is dataAddr over a compiled operand: translate with one
// swap-in retry on a poisoned pointer. Re-reading the operand after the
// swap-in is what picks up the runtime's pointer patch (only slot operands
// can hold poisoned heap pointers; pool operands re-read to the same
// constant, which is correct because swap-in never moves globals or code).
func (v *VM) cdataAddr(fr *frame, o cop, size uint64, perm guard.Perm) (uint64, error) {
	addr := o.get(fr)
	paddr, err := v.translate(addr, size, perm)
	if err == nil {
		return paddr, nil
	}
	if slot, _, ok := runtime.DecodeSwapPoison(addr); ok {
		if serr := v.swapIn(slot); serr != nil {
			return 0, &Fault{Addr: addr, Size: size, Perm: perm, Msg: "swap-in failed: " + serr.Error()}
		}
		return v.translate(o.get(fr), size, perm)
	}
	return 0, err
}

// compileClosure lowers l's function into chained block closures, walking its
// IR once. The result depends on the module alone.
func (p *Program) compileClosure(l *funcLayout) *cfunc {
	cf := ccompiler{
		cfunc: &cfunc{blocks: make([]cblock, len(l.fn.Blocks))},
		p:     p,
		l:     l,
		imms:  make(map[uint64]cop),
		addrs: make(map[uint64]cop),
	}
	for _, b := range l.fn.Blocks {
		cf.compileBlock(b)
	}
	return cf.cfunc
}

// cobserving reports whether an instruction can observe or perturb machine
// state mid-block (fault, trace, guard walk, nested safepoints, division
// errors). Observing instructions end a charge group and become a step: the
// group's batched accounting is on the deferred counters before the
// instruction executes, and the step flushes on whichever of its branches
// reads them, so at every observation point the counters are exactly what
// the reference interpreter would show.
func cobserving(op ir.Op) bool {
	switch op {
	case ir.OpLoad, ir.OpStore, ir.OpGuard, ir.OpCall, ir.OpAlloca,
		ir.OpSDiv, ir.OpSRem, ir.OpUDiv, ir.OpURem:
		return true
	}
	return false
}

// compileBlock fills b's entry of cf.blocks with its superinstruction
// closure. Phis are compiled away into the predecessors' edge copies.
func (cf *ccompiler) compileBlock(b *ir.Block) {
	bi := int32(b.Idx)
	code := b.Instrs[len(b.Phis()):]

	// take closes the accumulated charge group: the batched accounting for
	// the group (including the observing instruction about to run, which the
	// reference interpreter charges before executing it) plus the group's
	// pure steps, run with no per-step error checks — pures are infallible.
	// The charge itself lands on the cenv's deferred counters.
	// Sized once, from a count: an observing instruction is at most one
	// step, and every group's pures are a run of one slab.
	nObserving, hasCall := 0, false
	for _, in := range code {
		if cobserving(in.Op) {
			nObserving++
			hasCall = hasCall || in.Op == ir.OpCall
		}
	}
	var groupN, groupCyc uint64
	pures := make([]cpure, 0, len(code)-nObserving)
	take := func(extraN, extraCyc uint64) (uint64, uint64, []cpure) {
		n, cyc, group := groupN+extraN, groupCyc+extraCyc, pures[:len(pures):len(pures)]
		groupN, groupCyc, pures = 0, 0, pures[len(pures):]
		return n, cyc, group
	}
	steps := make([]cstep, 0, nObserving)

	// Identify the terminator and a possible fused compare+branch: the
	// block's last two instructions collapse when the compare's result
	// feeds the conditional branch directly. The compare still writes its
	// slot (other blocks may read it through a phi). (Verify: every block
	// ends in a terminator, so code is never empty.)
	ti := len(code) - 1
	bodyEnd := ti
	fuseCmpBr := false
	if t := code[ti]; t.Op == ir.OpCondBr && ti >= 1 {
		if p := code[ti-1]; (p.Op == ir.OpICmp || p.Op == ir.OpFCmp) && t.Args[0] == ir.Value(p) {
			fuseCmpBr = true
			bodyEnd = ti - 1
		}
	}

	// Lower the body into segments: pures accumulate into the pending
	// group; each observing instruction closes the group into one fused
	// step (deferred charge + pures + its own action). A load or store takes
	// the guard and the GEP in front of it into its step (see accessAt), and
	// both ride the step's charge. Taking the GEP in is one closure fewer to
	// compile at tier-up; in steady state it measured nothing (EXPERIMENTS.md,
	// PR 23) and stays because a matcher whose parts are each optional is
	// smaller than one that sets the unguarded pair apart.
	for i := 0; i < bodyEnd; i++ {
		in := code[i]
		if gep, gi, ai := accessAt(code[i:bodyEnd]); ai != nil {
			own, guarded, fused := ai, 0, 0 // own: the instruction whose charge closes the group
			if gep != nil {
				groupN++
				groupCyc += opCycles[gep.Op]
				i, fused = i+1, 1
			}
			if gi != nil {
				own = gi // the access's charge follows the guard walk
				i, guarded = i+1, 1
			}
			cf.shapes[guarded][fused]++
			segN, segCyc, group := take(1, opCycles[own.Op])
			steps = append(steps, cf.compileAccess(gi, ai, gep, segN, segCyc, group))
			continue
		}
		if !cobserving(in.Op) {
			groupN++
			groupCyc += opCycles[in.Op]
			pures = append(pures, cf.compilePure(in))
			continue
		}
		segN, segCyc, group := take(1, opCycles[in.Op])
		steps = append(steps, cf.compileObserving(in, segN, segCyc, group))
	}

	// Trailing pures plus the terminator(s) form the final charge group,
	// run just before the terminator closure.
	var termN, termCyc uint64
	for _, in := range code[bodyEnd:] {
		termN++
		termCyc += opCycles[in.Op]
	}
	finalN, finalCyc, finalPures := take(termN, termCyc)

	// Self-loop specialization: a fused compare+branch whose taken edge
	// re-enters this same block, in a block with no call steps, iterates
	// inside one run() invocation (see compileSelfLoop).
	if t := code[ti]; fuseCmpBr && !hasCall && (t.Succs[0] == b || t.Succs[1] == b) {
		cf.compileSelfLoop(b, code[ti-1], t, steps, finalN, finalCyc, finalPures)
		return
	}
	term := cf.compileTerm(b, code, ti, fuseCmpBr)
	cf.blocks[bi].run = func(e *cenv) (*cblock, error) {
		if n := len(e.pending); n > 0 {
			applyCopies(e, e.pending)
			e.pendN += uint64(n)
			e.pending = nil
		}
		for _, st := range steps {
			if err := st(e); err != nil {
				return nil, err
			}
		}
		e.pendN += finalN
		e.pendCyc += finalCyc
		for _, p := range finalPures {
			p(e)
		}
		return term(e)
	}
}

// accessAt matches an access shape at the head of code: an optional
// single-index GEP, an optional load/store guard, then the load or store,
// each feeding the next (the GEP's result is the address operand, the guard
// covers that same operand). ai is nil when code does not start with one; a
// GEP or guard that is not part of a shape is lowered on its own and the
// access behind it matches again, plain.
func accessAt(code []*ir.Instr) (gep, gi, ai *ir.Instr) {
	i := 0
	if in := code[i]; in.Op == ir.OpGEP && dynIndices(in) == 1 && hasSlot(in) && i+1 < len(code) {
		gep, i = in, i+1
	}
	if in := code[i]; in.Op == ir.OpGuard && (in.Kind == ir.GuardLoad || in.Kind == ir.GuardStore) && i+1 < len(code) {
		gi, i = in, i+1
	}
	ai = code[i]
	var addr ir.Value
	switch ai.Op {
	case ir.OpLoad:
		addr = ai.Args[0]
	case ir.OpStore:
		addr = ai.Args[1]
	default:
		return nil, nil, nil
	}
	if gi != nil && (!sameValue(gi.Args[0], addr) || (gi.Kind == ir.GuardLoad) != (ai.Op == ir.OpLoad)) ||
		gep != nil && addr != ir.Value(gep) {
		return nil, nil, nil
	}
	return gep, gi, ai
}

// applyCopies performs one edge's compiled phi assignments with
// parallel-copy semantics: all sources are read before any destination is
// written. The small-n cases stay in locals; wider phi sets buffer through
// the activation's scratch slice.
func applyCopies(e *cenv, cc []ccopy) {
	fr := e.fr
	switch n := len(cc); n {
	case 1:
		fr.regs[cc[0].dst] = cc[0].src.get(fr)
	case 2:
		t0, t1 := cc[0].src.get(fr), cc[1].src.get(fr)
		fr.regs[cc[0].dst] = t0
		fr.regs[cc[1].dst] = t1
	default:
		for i := 0; i < n; i++ {
			e.tmp[i] = cc[i].src.get(fr)
		}
		for i := 0; i < n; i++ {
			fr.regs[cc[i].dst] = e.tmp[i]
		}
	}
}

// cmpMask reports whether a compare reads its operands masked to their
// width — an unsigned predicate on a narrow integer, whose registers hold it
// sign-extended — and that width.
func cmpMask(in *ir.Instr) (bool, int) {
	t := in.Args[0].Type()
	return in.Pred >= ir.PredULT && t.IsInt() && t.Bits < 64, t.Bits
}

// compileCmpBit lowers a compare that feeds a fused conditional branch:
// the closure writes the compare's result slot (later blocks may read it
// through a phi) and returns the branch bit.
func (cf *ccompiler) compileCmpBit(p *ir.Instr) func(fr *frame) uint64 {
	ca, cb := cf.operand(p.Args[0]), cf.operand(p.Args[1])
	dst := cf.dst(p)
	pred := p.Pred
	if p.Op == ir.OpFCmp {
		return func(fr *frame) uint64 {
			x := math.Float64frombits(ca.get(fr))
			y := math.Float64frombits(cb.get(fr))
			bit := boolBit(fcmp(pred, x, y))
			fr.regs[dst] = bit
			return bit
		}
	}
	if maskCmp, srcBits := cmpMask(p); maskCmp {
		return func(fr *frame) uint64 {
			a, b := maskToWidth(ca.get(fr), srcBits), maskToWidth(cb.get(fr), srcBits)
			bit := boolBit(icmp(pred, a, b))
			fr.regs[dst] = bit
			return bit
		}
	}
	return func(fr *frame) uint64 {
		bit := boolBit(icmp(pred, ca.get(fr), cb.get(fr)))
		fr.regs[dst] = bit
		return bit
	}
}

// compileSelfLoop builds the specialized runner for a block whose fused
// compare+branch re-enters the block itself and whose body has no call
// steps: each iteration is just phi copies, body steps, the final charge
// group and the compare — no trampoline — with the gate asked at every
// virtual block head as the trampoline asks it. (Copies cost zero cycles, so
// sample timing is unaffected by their charge landing in the previous
// iteration.) A move — the policy's, acting here — that relocates a global
// patches this frame's pool registers in place, so the loop simply carries
// on.
func (cf *ccompiler) compileSelfLoop(b *ir.Block, cmpIn, in *ir.Instr, bsteps []cstep, finalN, finalCyc uint64, finalPures []cpure) {
	self := &cf.blocks[b.Idx]
	b0, b1 := &cf.blocks[in.Succs[0].Idx], &cf.blocks[in.Succs[1].Idx]
	cp0, cp1 := cf.compileCopies(b, in.Succs[0]), cf.compileCopies(b, in.Succs[1]) // the copies intern before the compare
	cmp := cf.compileCmpBit(cmpIn)

	self.run = func(e *cenv) (*cblock, error) {
		if n := len(e.pending); n > 0 {
			applyCopies(e, e.pending)
			e.pendN += uint64(n)
			e.pending = nil
		}
		for {
			for _, st := range bsteps {
				if err := st(e); err != nil {
					return nil, err
				}
			}
			e.pendN += finalN
			e.pendCyc += finalCyc
			for _, p := range finalPures {
				p(e)
			}
			next, cp := b1, cp1
			if cmp(e.fr) != 0 {
				next, cp = b0, cp0
			}
			if next != self {
				e.pending = cp
				return next, nil
			}
			if v := e.v; v.gate.due(v.Instrs+e.pendN, v.Cycles+e.pendCyc) {
				e.flush()
				if err := e.t.act(); err != nil {
					return nil, err
				}
			}
			applyCopies(e, cp)
			e.pendN += uint64(len(cp))
		}
	}
}

// compileTerm lowers a block's terminator (possibly fused with the
// preceding compare). The terminator's cycle charge already landed in the
// block's final charge group.
func (cf *ccompiler) compileTerm(b *ir.Block, code []*ir.Instr, ti int, fuseCmpBr bool) func(e *cenv) (*cblock, error) {
	name := cf.l.fn.Name
	in := code[ti]
	switch in.Op {
	case ir.OpBr:
		nb := &cf.blocks[in.Succs[0].Idx]
		cp := cf.compileCopies(b, in.Succs[0])
		return func(e *cenv) (*cblock, error) {
			e.pending = cp
			return nb, nil
		}

	case ir.OpCondBr:
		b0, b1 := &cf.blocks[in.Succs[0].Idx], &cf.blocks[in.Succs[1].Idx]
		cp0, cp1 := cf.compileCopies(b, in.Succs[0]), cf.compileCopies(b, in.Succs[1])
		if fuseCmpBr {
			p := code[ti-1]
			ca, cb := cf.operand(p.Args[0]), cf.operand(p.Args[1])
			dst := cf.dst(p)
			pred := p.Pred
			if p.Op == ir.OpFCmp {
				return func(e *cenv) (*cblock, error) {
					fr := e.fr
					x := math.Float64frombits(ca.get(fr))
					y := math.Float64frombits(cb.get(fr))
					bit := boolBit(fcmp(pred, x, y))
					fr.regs[dst] = bit
					if bit != 0 {
						e.pending = cp0
						return b0, nil
					}
					e.pending = cp1
					return b1, nil
				}
			}
			maskCmp, srcBits := cmpMask(p)
			return func(e *cenv) (*cblock, error) {
				fr := e.fr
				a, b := ca.get(fr), cb.get(fr)
				if maskCmp {
					a, b = maskToWidth(a, srcBits), maskToWidth(b, srcBits)
				}
				bit := boolBit(icmp(pred, a, b))
				fr.regs[dst] = bit
				if bit != 0 {
					e.pending = cp0
					return b0, nil
				}
				e.pending = cp1
				return b1, nil
			}
		}
		cond := cf.operand(in.Args[0])
		return func(e *cenv) (*cblock, error) {
			if cond.get(e.fr)&1 != 0 {
				e.pending = cp0
				return b0, nil
			}
			e.pending = cp1
			return b1, nil
		}

	case ir.OpRet:
		if len(in.Args) == 1 {
			a := cf.operand(in.Args[0])
			return func(e *cenv) (*cblock, error) {
				e.flush()
				e.ret = a.get(e.fr)
				return nil, nil
			}
		}
		return func(e *cenv) (*cblock, error) {
			e.flush()
			e.ret = 0
			return nil, nil
		}

	default: // ir.OpUnreachable
		return func(e *cenv) (*cblock, error) {
			e.flush()
			return nil, fmt.Errorf("vm: reached unreachable in @%s", name)
		}
	}
}

// compileCopies lowers the phi assignments of the edge from->to: each of
// to's phis takes the operand whose Preds entry is from.
func (cf *ccompiler) compileCopies(from, to *ir.Block) []ccopy {
	phis := to.Phis()
	if len(phis) == 0 {
		return nil
	}
	cf.maxPhis = max(cf.maxPhis, len(phis))
	cc := make([]ccopy, len(phis))
	for i, phi := range phis {
		j := slices.Index(phi.Preds, from) // Verify: every edge has an incoming
		cc[i] = ccopy{dst: cf.l.slotOf[phi.ID], src: cf.operand(phi.Args[j])}
	}
	return cc
}

// compilePure lowers one pure (non-observing, non-terminator) instruction.
// Pure steps never fail and never touch the accounting counters — their
// segment's prefix closure charges for them and runs them back to back.
func (cf *ccompiler) compilePure(in *ir.Instr) cpure {
	dst := cf.dst(in)
	switch in.Op {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv:
		a, b := cf.operand(in.Args[0]), cf.operand(in.Args[1])
		op := in.Op
		return func(e *cenv) {
			fr := e.fr
			x, y := math.Float64frombits(a.get(fr)), math.Float64frombits(b.get(fr))
			var r float64
			switch op {
			case ir.OpFAdd:
				r = x + y
			case ir.OpFSub:
				r = x - y
			case ir.OpFMul:
				r = x * y
			case ir.OpFDiv:
				r = x / y
			}
			fr.regs[dst] = math.Float64bits(r)
		}

	case ir.OpICmp:
		a, b := cf.operand(in.Args[0]), cf.operand(in.Args[1])
		pred := in.Pred
		if maskCmp, srcBits := cmpMask(in); maskCmp {
			return func(e *cenv) {
				fr := e.fr
				x, y := maskToWidth(a.get(fr), srcBits), maskToWidth(b.get(fr), srcBits)
				fr.regs[dst] = boolBit(icmp(pred, x, y))
			}
		}
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = boolBit(icmp(pred, a.get(fr), b.get(fr)))
		}

	case ir.OpFCmp:
		a, b := cf.operand(in.Args[0]), cf.operand(in.Args[1])
		pred := in.Pred
		return func(e *cenv) {
			fr := e.fr
			x := math.Float64frombits(a.get(fr))
			y := math.Float64frombits(b.get(fr))
			fr.regs[dst] = boolBit(fcmp(pred, x, y))
		}

	case ir.OpTrunc:
		a := cf.operand(in.Args[0])
		bits := in.Typ.Bits
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = uint64(signExtend(a.get(fr), bits))
		}
	case ir.OpZExt:
		a := cf.operand(in.Args[0])
		srcBits := in.Args[0].Type().Bits
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = maskToWidth(a.get(fr), srcBits)
		}
	case ir.OpSExt:
		a := cf.operand(in.Args[0])
		srcBits := in.Args[0].Type().Bits
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = uint64(signExtend(a.get(fr), srcBits))
		}
	case ir.OpPtrToInt, ir.OpIntToPtr:
		a := cf.operand(in.Args[0])
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = a.get(fr)
		}
	case ir.OpSIToFP:
		a := cf.operand(in.Args[0])
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = math.Float64bits(float64(int64(a.get(fr))))
		}
	case ir.OpFPToSI:
		a := cf.operand(in.Args[0])
		bits := in.Typ.Bits
		return func(e *cenv) {
			fr := e.fr
			fr.regs[dst] = maskSigned(int64(math.Float64frombits(a.get(fr))), bits)
		}

	case ir.OpGEP:
		a := cf.operand(in.Args[0])
		var dyn []cgep
		gc := gepFold(in, func(x ir.Value, stride int64) {
			dyn = append(dyn, cgep{op: cf.operand(x), stride: stride})
		})
		gsteps := dyn // never reassigned: the closures below hold it by value
		if len(gsteps) == 0 {
			return func(e *cenv) {
				fr := e.fr
				addr := a.get(fr) + gc
				if dst >= 0 {
					fr.regs[dst] = addr
				}
			}
		}
		if len(gsteps) == 1 {
			g0 := gsteps[0]
			return func(e *cenv) {
				fr := e.fr
				addr := a.get(fr) + gc + uint64(int64(g0.op.get(fr))*g0.stride)
				if dst >= 0 {
					fr.regs[dst] = addr
				}
			}
		}
		return func(e *cenv) {
			fr := e.fr
			addr := a.get(fr) + gc
			for i := range gsteps {
				addr += uint64(int64(gsteps[i].op.get(fr)) * gsteps[i].stride)
			}
			if dst >= 0 {
				fr.regs[dst] = addr
			}
		}

	case ir.OpSelect:
		a, b, c := cf.operand(in.Args[0]), cf.operand(in.Args[1]), cf.operand(in.Args[2])
		return func(e *cenv) {
			fr := e.fr
			var r uint64
			if a.get(fr)&1 != 0 {
				r = b.get(fr)
			} else {
				r = c.get(fr)
			}
			if dst >= 0 {
				fr.regs[dst] = r
			}
		}
	}

	// Pure integer binops (error-free: divisions are observing).
	if !in.Op.IsBinary() {
		panic(fmt.Sprintf("vm: lowering: no form for %s (module not verified?)", in))
	}
	a, b := cf.operand(in.Args[0]), cf.operand(in.Args[1])
	bits := in.Typ.Bits
	op := in.Op
	if bits == 64 {
		switch op {
		case ir.OpAdd:
			return func(e *cenv) {
				fr := e.fr
				r := a.get(fr) + b.get(fr)
				if dst >= 0 {
					fr.regs[dst] = r
				}
			}
		case ir.OpSub:
			return func(e *cenv) {
				fr := e.fr
				r := a.get(fr) - b.get(fr)
				if dst >= 0 {
					fr.regs[dst] = r
				}
			}
		case ir.OpMul:
			return func(e *cenv) {
				fr := e.fr
				r := a.get(fr) * b.get(fr)
				if dst >= 0 {
					fr.regs[dst] = r
				}
			}
		case ir.OpAnd:
			return func(e *cenv) {
				fr := e.fr
				r := a.get(fr) & b.get(fr)
				if dst >= 0 {
					fr.regs[dst] = r
				}
			}
		case ir.OpOr:
			return func(e *cenv) {
				fr := e.fr
				r := a.get(fr) | b.get(fr)
				if dst >= 0 {
					fr.regs[dst] = r
				}
			}
		case ir.OpXor:
			return func(e *cenv) {
				fr := e.fr
				r := a.get(fr) ^ b.get(fr)
				if dst >= 0 {
					fr.regs[dst] = r
				}
			}
		}
	}
	return func(e *cenv) {
		fr := e.fr
		r, _ := intBinop(op, a.get(fr), b.get(fr), bits)
		if dst >= 0 {
			fr.regs[dst] = r
		}
	}
}

// compileObserving lowers one observing instruction other than a load or
// store (those are compileAccess's) and the charge group it ends
// (segN/segCyc/pures, the instruction's own charge included) into one step:
// every step opens with cenv.open.
func (cf *ccompiler) compileObserving(in *ir.Instr, segN, segCyc uint64, pures []cpure) cstep {
	dst := cf.dst(in)
	switch in.Op {
	case ir.OpAlloca:
		a := cf.operand(in.Args[0])
		elemSize := uint64(in.Elem.Size())
		return func(e *cenv) error {
			e.open(segN, segCyc, pures)
			t, fr := e.t, e.fr
			count := int64(a.get(fr))
			size := alignTo(uint64(count)*elemSize, heapAlign)
			if t.sp < t.stackBase+size {
				e.flush()
				return &Fault{Addr: t.sp - size, Size: size, Perm: guard.PermRW, Msg: "stack overflow"}
			}
			t.sp -= size
			if t.sp < t.minSP {
				t.minSP = t.sp
			}
			if dst >= 0 {
				fr.regs[dst] = t.sp
			}
			return nil
		}

	case ir.OpGuard:
		// A guard standing alone (range and call guards, or one the access
		// matcher could not pair) runs the reference interpreter's guard:
		// its operands are read off the IR, live, so they need no pool
		// registers, and miss/swap-in/fault semantics are the reference's.
		return func(e *cenv) error {
			e.open(segN, segCyc, pures)
			e.flush()
			return e.v.execGuard(e.t, e.fr, in)
		}

	case ir.OpCall:
		return cf.compileCall(in, segN, segCyc, pures)
	}

	// Observing integer binops: the divisions, which can fail.
	a, b := cf.operand(in.Args[0]), cf.operand(in.Args[1])
	bits := in.Typ.Bits
	op := in.Op
	return func(e *cenv) error {
		e.open(segN, segCyc, pures)
		fr := e.fr
		r, err := intBinop(op, a.get(fr), b.get(fr), bits)
		if err != nil {
			e.flush()
			return fmt.Errorf("vm: @%s: %s: %w", fr.fb.fn.Name, in, err)
		}
		if dst >= 0 {
			fr.regs[dst] = r
		}
		return nil
	}
}

// compileCall lowers a call site: argument marshalling and the dispatch.
// The callee is named by its index into the program's function table, so
// finding its binding is one slice index. A callee already bound with a
// compiled body enters it directly (counted as an inline-cache hit); the
// first call, which lowers and binds, goes through VM.callIdx (a miss).
func (cf *ccompiler) compileCall(in *ir.Instr, segN, segCyc uint64, pures []cpure) cstep {
	dst := cf.dst(in)
	callee := in.Callee
	calleeIdx := cf.p.funcIdx[callee]
	cargsOps := make([]cop, len(in.Args))
	for i, a := range in.Args {
		cargsOps[i] = cf.operand(a)
	}
	builtin := callee.IsDecl()
	return func(e *cenv) error {
		e.open(segN, segCyc, pures)
		e.flush()
		v, t, fr := e.v, e.t, e.fr
		var buf [maxStackArgs]uint64
		cargs := argSlice(&buf, len(cargsOps))
		for i := range cargsOps {
			cargs[i] = cargsOps[i].get(fr)
		}
		var ret uint64
		var err error
		if builtin {
			ret, err = v.callBuiltin(t, callee, cargs)
		} else if fb := &v.bound[calleeIdx]; fb.cf != nil {
			v.closureICHits++
			ret, err = v.ccall(t, fb, cargs)
		} else {
			v.closureICMisses++
			ret, err = v.callIdx(t, calleeIdx, cargs)
		}
		if err != nil {
			return err
		}
		if dst >= 0 {
			fr.regs[dst] = ret
		}
		return nil
	}
}

// compileAccess lowers a load or store — ai — and the charge group it ends
// into one access step. The guard that covers it (gi) and the single-index
// GEP that computes its address (gep; its result slot is still written, for
// later readers and the cold path) are each optional, matched by accessAt.
//
// The fast path goes straight to physical memory. Guarded, it is one fused
// xcache probe that both validates the access and proves identity
// translation (guard.CheckTranslateCached), and the access's own charge
// lands on the deferred counters beside the group's. Unguarded — the
// compiler proved the access safe — it is what CARAT says such an access
// costs: a bounds compare, in CARAT mode (the bounds compare stands in for
// the bus fault, as in VM.translate). Every other outcome flushes and falls
// into exactly the unfused sequence — guardCold, the access's direct charge,
// cdataAddr — so faults, swap-ins, paging-mode page walks, evaluator and
// xcache counters, trace events and callback order stay byte-identical with
// the reference interpreter. Both paths end in the one load/sign-extend/store tail.
func (cf *ccompiler) compileAccess(gi, ai, gep *ir.Instr, segN, segCyc uint64, pures []cpure) cstep {
	// What the step knows about its site, packed: the closure holds a copy,
	// and there is one per load or store in the module (a group's charge fits
	// 32 bits: its instructions are in memory). Operands intern in
	// instruction order, guard before GEP (pool order is part of the
	// lowering golden).
	ld := ai.Op == ir.OpLoad
	s := struct {
		gi                 *ir.Instr
		ggc                uint64 // GEP: folded constant offset
		gstride            int64  // GEP: stride of the dynamic index
		segN, segCyc       uint32
		gbase, gidx, gsz   cop // GEP base and index; guard size
		aop, vop           cop // address; stored value
		dst                int32
		w, cost, srcBits   uint8
		perm               guard.Perm
		hasGep, ld, signed bool
	}{gi: gi, segN: uint32(segN), segCyc: uint32(segCyc), dst: cf.dst(ai), cost: uint8(opCycles[ai.Op]),
		perm: guard.PermRead, hasGep: gep != nil, ld: ld}
	if gi != nil {
		s.aop, s.gsz = cf.operand(gi.Args[0]), cf.operand(gi.Args[1])
	}
	if gep != nil {
		var gidx cop
		var gstride int64
		s.gbase = cf.operand(gep.Args[0])
		s.ggc = gepFold(gep, func(x ir.Value, stride int64) { gidx, gstride = cf.operand(x), stride })
		s.gidx, s.gstride = gidx, gstride
	}
	if ld {
		s.aop = cf.operand(ai.Args[0])
		s.w, s.srcBits, s.signed = uint8(ai.Elem.Size()), uint8(ai.Elem.Bits), ai.Elem.IsInt()
	} else {
		s.vop, s.aop, s.perm = cf.operand(ai.Args[0]), cf.operand(ai.Args[1]), guard.PermWrite
		s.w = uint8(ai.Args[0].Type().Size())
	}

	return func(e *cenv) error {
		e.open(uint64(s.segN), uint64(s.segCyc), pures)
		fr := e.fr
		regs := fr.regs
		var addr, val uint64
		if s.hasGep {
			addr = regs[s.gbase] + s.ggc + uint64(int64(regs[s.gidx])*s.gstride)
			regs[s.aop] = addr
		} else {
			addr = regs[s.aop]
		}
		if !s.ld {
			val = regs[s.vop] // after the GEP's write (it may BE the value), before cdataAddr's swap-in patch
		}
		width := uint64(s.w)
		pa, ok := addr, false
		if s.gi != nil {
			if gsize := regs[s.gsz]; int64(gsize) > 0 && width <= gsize {
				pa, ok = e.eval.CheckTranslateCached(e.xc, addr, gsize, s.perm)
			}
		} else if e.carat {
			ok = e.mem.InBounds(addr, width)
		}
		if !ok {
			e.flush()
			if s.gi != nil {
				if err := e.v.guardCold(e.t, fr, s.gi, s.aop, s.gsz, s.perm); err != nil {
					return err
				}
				if !s.ld {
					val = regs[s.vop] // the guard is its own instruction: a swap-in under it patches the value too
				}
				e.charge(uint64(s.cost))
			}
			var err error
			if pa, err = e.v.cdataAddr(fr, s.aop, width, s.perm); err != nil {
				return err
			}
		} else if s.gi != nil {
			e.pendN++
			e.pendCyc += uint64(s.cost)
		}
		if !s.ld {
			if s.w == 8 {
				e.mem.Store64(pa, val)
			} else {
				e.mem.StoreN(pa, val, int(s.w))
			}
			return nil
		}
		var raw uint64
		if s.w == 8 {
			raw = e.mem.Load64(pa)
		} else {
			raw = e.mem.LoadN(pa, int(s.w))
		}
		if s.signed {
			raw = uint64(signExtend(raw, int(s.srcBits)))
		}
		if s.dst >= 0 {
			regs[s.dst] = raw
		}
		return nil
	}
}
