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
// phi copies — into one cblock per basic block. A block is data: the steps of
// its body, its final charge group, and a terminator descriptor (cterm):
//
//   - per-instruction accounting is batched into one charge per "group"
//     (a maximal run of pure instructions, optionally ended by the single
//     observing instruction that can fault, trace, or reach a safepoint);
//     each observing instruction is one step, a Go closure that opens with
//     its group's charge and pures;
//   - a compare that feeds the block's conditional branch fuses into the
//     terminator;
//   - every load and store is one access step (compileAccess) in which the
//     guard and the address GEP are both optional: the guard that covers it
//     and the single-index GEP that feeds it fold into the step, and its fast
//     path goes straight to physical memory — behind one fused xcache probe
//     (guard.CheckTranslateCached) when guarded, behind a bounds compare when
//     the compiler removed the guard — with no separate translate, no
//     duplicate operand read and no flush. The hot shapes get a closure of
//     their own; every shape's slow path is one method, accSite.cold;
//   - immediates and global/function addresses live in a per-function
//     constant pool laid out as extra registers.
//
// ccall interprets the blocks in one dispatch loop: it asks the gate at the
// block head, applies the incoming edge's phi copies, runs the steps and the
// final pures, and evaluates the terminator in a switch — an indirect call
// per step, none per block or per branch. A fused access's cold path,
// guardCold and cdataAddr, reads registers and ends in the reference
// interpreter's guardMiss and translate; a guard that stands alone runs the
// reference's execGuard, which reads its operands off the IR.
//
// The lowering is total over verified modules: ir.Verify rejects every shape
// it has no form for (aggregate-width accesses, struct GEP indices that are
// not in-range constants, undefined opcodes), and NewProgram verifies before
// anything is lowered. A shape it still cannot lower is a bug, not an input.
//
// A compiled body is a pure function of the module: its blocks and closures
// hold operand indices, strides and successor blocks, never a VM, a thread,
// or an address. Everything a run contributes reaches them through the cenv. That
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
// steps: the steps themselves are VM-independent, so everything that belongs
// to this run — the VM, its evaluator and memory, the function's profile
// bucket — rides here, one load away.
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
	carat   bool     // CARAT mode: an unguarded access is a bounds compare
	tmp     []uint64 // copy scratch of the edges with more than two phis
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

// cblock is one compiled basic block, as data: the steps of its body, then
// its final charge group — the trailing pures and the terminator, fused
// compare included — and the terminator itself. ccall interprets it.
type cblock struct {
	steps            []cstep
	finalPures       []cpure
	finalN, finalCyc uint32 // a group's charge fits 32 bits: its instructions are in memory
	term             cterm
}

// tkind is a terminator's form.
type tkind uint8

const (
	tBr          tkind = iota // to succ[0]
	tCondBr                   // on bit 0 of regs[a]
	tICmp                     // fused: icmp pred regs[a], regs[b] into regs[dst], then branch on it
	tICmpMasked               // the same on operands masked to bits: an unsigned narrow compare
	tFCmp                     // fused: fcmp pred
	tRet                      // return regs[a]
	tRetVoid                  // return 0
	tUnreachable              // stop with an error naming the function
)

// cterm is a compiled terminator. A taken branch goes to succ[0] with the
// phi copies copies[0], a branch not taken to succ[1] with copies[1]; a
// fused compare still writes its result register, which other blocks may
// read through a phi.
type cterm struct {
	kind   tkind
	pred   ir.Pred
	bits   uint8
	a, b   cop
	dst    int32
	succ   [2]int32
	copies [2][]ccopy
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
	maxPhis int // widest phi set of any edge; above two it sizes the copy scratch
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
	sites []accSite      // the access steps' sites: one slab, sized from a count
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

// constBits is a constant's register image: an integer's two's complement
// (an i1's 0 or 1, as narrow holds it), a float's IEEE bits.
func constBits(c *ir.Const) uint64 {
	if c.Typ.IsFloat() {
		return math.Float64bits(c.Float)
	}
	if c.Typ.Bits == 1 {
		return uint64(c.Int) & 1
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
// with callFunc's; the body is the dispatch loop over its blocks.
func (v *VM) ccall(t *thread, fb *funcBinding, args []uint64) (uint64, error) {
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
	if fb.cf.maxPhis > 2 {
		e.tmp = make([]uint64, fb.cf.maxPhis)
	}
	regs := fr.regs // a move patches the pool in place, never replaces the slice
	blocks := fb.cf.blocks
	blk := &blocks[0]
	var copies []ccopy // the incoming edge's phi copies
	for {
		// The gate is asked at every block head on flushed plus deferred
		// counters, before the incoming edge's phi copies are charged: where
		// the reference interpreter asks. A head where nothing is due flushes
		// nothing.
		if v.gate.due(v.Instrs+e.pendN, v.Cycles+e.pendCyc) {
			e.flush()
			if err := t.act(); err != nil {
				return 0, err
			}
		}
		if n := len(copies); n > 0 {
			applyCopies(e, copies)
			e.pendN += uint64(n)
		}
		for _, st := range blk.steps {
			if err := st(e); err != nil {
				return 0, err
			}
		}
		e.pendN += uint64(blk.finalN)
		e.pendCyc += uint64(blk.finalCyc)
		for _, p := range blk.finalPures {
			p(e)
		}
		tm := &blk.term
		var bit uint64 // 1: the branch is taken
		switch tm.kind {
		case tBr:
			bit = 1
		case tCondBr:
			bit = regs[tm.a] & 1
		case tICmp:
			bit = boolBit(icmp(tm.pred, regs[tm.a], regs[tm.b]))
			regs[tm.dst] = bit
		case tICmpMasked:
			bits := int(tm.bits)
			bit = boolBit(icmp(tm.pred, maskToWidth(regs[tm.a], bits), maskToWidth(regs[tm.b], bits)))
			regs[tm.dst] = bit
		case tFCmp:
			bit = boolBit(fcmp(tm.pred, math.Float64frombits(regs[tm.a]), math.Float64frombits(regs[tm.b])))
			regs[tm.dst] = bit
		case tRet:
			e.flush()
			return regs[tm.a], nil
		case tRetVoid:
			e.flush()
			return 0, nil
		default: // tUnreachable
			e.flush()
			return 0, fmt.Errorf("vm: reached unreachable in @%s", fb.fn.Name)
		}
		blk, copies = &blocks[tm.succ[bit^1]], tm.copies[bit^1]
	}
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
		if _, serr := v.swapIn(slot); serr != nil {
			return 0, &Fault{Addr: addr, Size: size, Perm: perm, Msg: "swap-in failed: " + serr.Error()}
		}
		return v.translate(o.get(fr), size, perm)
	}
	return 0, err
}

// compileClosure lowers l's function into its blocks and their steps,
// walking its IR once. The result depends on the module alone.
func (p *Program) compileClosure(l *funcLayout) *cfunc {
	accesses := 0 // every access step is one load or store
	for _, b := range l.fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad || in.Op == ir.OpStore {
				accesses++
			}
		}
	}
	cf := ccompiler{
		cfunc: &cfunc{blocks: make([]cblock, len(l.fn.Blocks))},
		p:     p,
		l:     l,
		imms:  make(map[uint64]cop),
		addrs: make(map[uint64]cop),
	}
	if accesses > 0 {
		cf.sites = make([]accSite, 0, accesses)
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

// compileBlock fills b's entry of cf.blocks. Phis are compiled away into
// the predecessors' edge copies.
func (cf *ccompiler) compileBlock(b *ir.Block) {
	code := b.Instrs[len(b.Phis()):]

	// take closes the accumulated charge group: the batched accounting for
	// the group (including the observing instruction about to run, which the
	// reference interpreter charges before executing it) plus the group's
	// pure steps, run with no per-step error checks — pures are infallible.
	// The charge itself lands on the cenv's deferred counters.
	// Sized once, from a count: an observing instruction is at most one
	// step, and every group's pures are a run of one slab.
	nObserving := 0
	for _, in := range code {
		if cobserving(in.Op) {
			nObserving++
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
	// run just before the terminator.
	var termN, termCyc uint64
	for _, in := range code[bodyEnd:] {
		termN++
		termCyc += opCycles[in.Op]
	}
	finalN, finalCyc, finalPures := take(termN, termCyc)
	cf.blocks[b.Idx] = cblock{steps: steps, finalPures: finalPures, finalN: uint32(finalN), finalCyc: uint32(finalCyc),
		term: cf.compileTerm(b, code, ti, fuseCmpBr)}
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

// compileTerm lowers a block's terminator (possibly fused with the
// preceding compare). The terminator's cycle charge already landed in the
// block's final charge group. A branch's copies intern before its compare's
// operands.
func (cf *ccompiler) compileTerm(b *ir.Block, code []*ir.Instr, ti int, fuseCmpBr bool) cterm {
	in := code[ti]
	switch in.Op {
	case ir.OpBr:
		return cterm{kind: tBr, succ: [2]int32{int32(in.Succs[0].Idx)}, copies: [2][]ccopy{cf.compileCopies(b, in.Succs[0])}}

	case ir.OpCondBr:
		t := cterm{kind: tCondBr, succ: [2]int32{int32(in.Succs[0].Idx), int32(in.Succs[1].Idx)}}
		t.copies[0], t.copies[1] = cf.compileCopies(b, in.Succs[0]), cf.compileCopies(b, in.Succs[1])
		if !fuseCmpBr {
			t.a = cf.operand(in.Args[0])
			return t
		}
		p := code[ti-1]
		t.a, t.b = cf.operand(p.Args[0]), cf.operand(p.Args[1])
		t.dst, t.pred, t.kind = cf.dst(p), p.Pred, tICmp
		if p.Op == ir.OpFCmp {
			t.kind = tFCmp
		} else if maskCmp, srcBits := cmpMask(p); maskCmp {
			t.kind, t.bits = tICmpMasked, uint8(srcBits)
		}
		return t

	case ir.OpRet:
		if len(in.Args) == 1 {
			return cterm{kind: tRet, a: cf.operand(in.Args[0])}
		}
		return cterm{kind: tRetVoid}
	}
	return cterm{kind: tUnreachable} // ir.OpUnreachable
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
			fr.regs[dst] = narrow(a.get(fr), bits)
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
			fr.regs[dst] = narrow(uint64(int64(math.Float64frombits(a.get(fr)))), bits)
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

// accSite is what an access step knows about its load or store: one per
// load or store in the module, in its function's slab, and what the step's
// closure holds. Operands intern in instruction order, guard before GEP
// (pool order is part of the lowering golden).
//
// Every step computes its address as a GEP, base + offset + index·stride,
// and writes it to the address register. An access without a fused GEP is
// the GEP aop + 0 + aop·0: it rewrites the register with the value it holds,
// and no step branches on whether a GEP is fused.
type accSite struct {
	gi               *ir.Instr
	pures            []cpure // the charge group the step opens with
	ggc              uint64  // GEP: folded constant offset
	gstride          int64   // GEP: stride of the dynamic index
	segN, segCyc     uint32  // the group's charge, the access's own included
	gbase, gidx, gsz cop     // GEP base and index; guard size
	aop, vop         cop     // address; stored value
	dst              int32
	w, cost, srcBits uint8
	perm             guard.Perm
	ld, signed       bool
}

// addr computes the access's address and writes it to its register.
func (s *accSite) addr(regs []uint64) uint64 {
	a := regs[s.gbase] + s.ggc + uint64(int64(regs[s.gidx])*s.gstride)
	regs[s.aop] = a
	return a
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
// the bus fault, as in VM.translate). Every other outcome falls into
// accSite.cold, the unfused sequence. The hot shapes — an 8-byte load or
// store, guarded or not — each get a closure that branches on nothing of its
// site; a narrower access always takes the cold path.
func (cf *ccompiler) compileAccess(gi, ai, gep *ir.Instr, segN, segCyc uint64, pures []cpure) cstep {
	ld := ai.Op == ir.OpLoad
	cf.sites = append(cf.sites, accSite{gi: gi, pures: pures, segN: uint32(segN), segCyc: uint32(segCyc),
		dst: cf.dst(ai), cost: uint8(opCycles[ai.Op]), perm: guard.PermRead, ld: ld})
	s := &cf.sites[len(cf.sites)-1] // the slab never grows: it was sized from a count
	if gi != nil {
		s.aop, s.gsz = cf.operand(gi.Args[0]), cf.operand(gi.Args[1])
	}
	if gep != nil {
		s.gbase = cf.operand(gep.Args[0])
		s.ggc = gepFold(gep, func(x ir.Value, stride int64) { s.gidx, s.gstride = cf.operand(x), stride })
	}
	if ld {
		s.aop = cf.operand(ai.Args[0])
		s.w, s.srcBits, s.signed = uint8(ai.Elem.Size()), uint8(ai.Elem.Bits), ai.Elem.IsInt()
	} else {
		s.vop, s.aop, s.perm = cf.operand(ai.Args[0]), cf.operand(ai.Args[1]), guard.PermWrite
		s.w = uint8(ai.Args[0].Type().Size())
	}
	if gep == nil {
		s.gbase, s.gidx = s.aop, s.aop
	}
	if s.w != 8 {
		return s.narrow
	}
	// An 8-byte load needs no sign extension, and it always has a register.
	switch {
	case gi != nil && ld:
		return func(e *cenv) error {
			e.open(uint64(s.segN), uint64(s.segCyc), s.pures)
			regs := e.fr.regs
			addr := s.addr(regs)
			if gsize := regs[s.gsz]; int64(gsize) >= 8 {
				if pa, ok := e.eval.CheckTranslateCached(e.xc, addr, gsize, guard.PermRead); ok {
					e.pendN++
					e.pendCyc += uint64(s.cost)
					regs[s.dst] = e.mem.Load64(pa)
					return nil
				}
			}
			return s.cold(e)
		}
	case gi != nil:
		return func(e *cenv) error {
			e.open(uint64(s.segN), uint64(s.segCyc), s.pures)
			regs := e.fr.regs
			addr := s.addr(regs)
			if gsize := regs[s.gsz]; int64(gsize) >= 8 {
				if pa, ok := e.eval.CheckTranslateCached(e.xc, addr, gsize, guard.PermWrite); ok {
					e.pendN++
					e.pendCyc += uint64(s.cost)
					e.mem.Store64(pa, regs[s.vop])
					return nil
				}
			}
			return s.cold(e)
		}
	case ld:
		return func(e *cenv) error {
			e.open(uint64(s.segN), uint64(s.segCyc), s.pures)
			regs := e.fr.regs
			addr := s.addr(regs)
			if e.carat && e.mem.InBounds(addr, 8) {
				regs[s.dst] = e.mem.Load64(addr)
				return nil
			}
			return s.cold(e)
		}
	}
	return func(e *cenv) error {
		e.open(uint64(s.segN), uint64(s.segCyc), s.pures)
		regs := e.fr.regs
		addr := s.addr(regs)
		if e.carat && e.mem.InBounds(addr, 8) {
			e.mem.Store64(addr, regs[s.vop])
			return nil
		}
		return s.cold(e)
	}
}

// narrow is the step of an access narrower than 8 bytes, which has no fast
// path (no suite kernel executes one): it takes the cold path every time.
func (s *accSite) narrow(e *cenv) error {
	e.open(uint64(s.segN), uint64(s.segCyc), s.pures)
	s.addr(e.fr.regs)
	return s.cold(e)
}

// cold is every access step's slow path, entered with the group open and the
// address written: it flushes and runs exactly the unfused sequence —
// guardCold, the access's direct charge, cdataAddr, the access — so faults,
// swap-ins, paging-mode page walks, evaluator and xcache counters, trace
// events and callback order stay byte-identical with the reference
// interpreter.
func (s *accSite) cold(e *cenv) error {
	e.flush()
	fr := e.fr
	val := fr.regs[s.vop] // before cdataAddr's swap-in patch, as the reference reads it
	if s.gi != nil {
		if err := e.v.guardCold(e.t, fr, s.gi, s.aop, s.gsz, s.perm); err != nil {
			return err
		}
		val = fr.regs[s.vop] // the guard is its own instruction: a swap-in under it patches the value too
		e.charge(uint64(s.cost))
	}
	pa, err := e.v.cdataAddr(fr, s.aop, uint64(s.w), s.perm)
	if err != nil {
		return err
	}
	if !s.ld {
		e.mem.StoreN(pa, val, int(s.w))
		return nil
	}
	raw := e.mem.LoadN(pa, int(s.w))
	if s.signed {
		raw = narrow(raw, int(s.srcBits))
	}
	if s.dst >= 0 {
		fr.regs[s.dst] = raw
	}
	return nil
}
