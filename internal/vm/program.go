package vm

import (
	"fmt"
	"sync/atomic"

	"carat/internal/ir"
	"carat/internal/obs"
)

// Program is the VM-independent half of a loaded module: everything the
// loader and the compiled engine's lowering derive from the
// *ir.Module alone — function and global indices, and per function the
// register-file layout and the compiled closure body with its pool layout
// and relocs. Nothing in it names a VM, a thread or an address, so one
// Program serves any number of VMs on any goroutines: caratd hangs it off a
// module-cache entry so a cache hit lowers nothing.
//
// Each function's parts are built on first use and published atomically.
// The builds are deterministic functions of the module, so when two VMs
// race, the loser's equivalent copy is dropped and only work is wasted.
//
// Immutability contract: a module handed to NewProgram must never be
// mutated again. The Program keeps pointers into it (instructions, blocks,
// types) and re-reads them from whichever goroutine first calls a function.
type Program struct {
	mod       *ir.Module
	funcIdx   map[*ir.Func]int32
	globalIdx map[*ir.Global]int32
	funcs     []funcCode // parallel to mod.Funcs
	funcNames []string   // parallel to mod.Funcs: every VM's profile names its buckets with it
}

// funcCode is one function's share of a Program.
type funcCode struct {
	layout atomic.Pointer[funcLayout] // both engines
	cf     atomic.Pointer[cfunc]      // compiled engine
}

// funcLayout is the per-function "register file" layout: every SSA value
// gets a slot; pointer-typed slots are recorded so the move engine can
// patch in-register pointers. Parameter i sits in slot i (ir.Verify:
// Params[i].Idx == i); an instruction's slot is slotOf[its ID] (a module is
// never mutated once it has a Program, so no ID is past the table's end).
type funcLayout struct {
	fn       *ir.Func
	slotOf   []int32
	nSlots   int
	ptrSlots []int
}

// slot returns the register of an SSA value: a parameter or an instruction.
func (l *funcLayout) slot(x ir.Value) int32 {
	if p, isParam := x.(*ir.Param); isParam {
		return int32(p.Idx)
	}
	return l.slotOf[x.(*ir.Instr).ID]
}

// NewProgram verifies mod — once, for every VM that will run it — and
// indexes it. No function is lowered until a VM first calls it; ir.Verify
// passing is what guarantees every function then CAN be lowered.
func NewProgram(mod *ir.Module) (*Program, error) {
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("vm: load: %w", err)
	}
	p := &Program{
		mod:       mod,
		funcIdx:   make(map[*ir.Func]int32, len(mod.Funcs)),
		globalIdx: make(map[*ir.Global]int32, len(mod.Globals)),
		funcs:     make([]funcCode, len(mod.Funcs)),
		funcNames: make([]string, len(mod.Funcs)),
	}
	for i, f := range mod.Funcs {
		p.funcIdx[f] = int32(i)
		p.funcNames[i] = f.Name
	}
	for i, g := range mod.Globals {
		p.globalIdx[g] = int32(i)
	}
	return p, nil
}

// publish returns *slot, building and installing it first when it is empty.
func publish[T any](slot *atomic.Pointer[T], build func() *T) *T {
	if x := slot.Load(); x != nil {
		return x
	}
	slot.CompareAndSwap(nil, build())
	return slot.Load()
}

// hasSlot reports whether in produces a value and so owns a register.
func hasSlot(in *ir.Instr) bool { return in.Op.HasResult() && in.Typ != ir.Void }

// buildLayout numbers f's registers: parameters first, then every
// value-producing instruction in block order.
func buildLayout(f *ir.Func) *funcLayout {
	l := &funcLayout{fn: f, slotOf: make([]int32, f.NumIDs())}
	add := func(t *ir.Type) int32 {
		if t.IsPtr() {
			l.ptrSlots = append(l.ptrSlots, l.nSlots)
		}
		l.nSlots++
		return int32(l.nSlots - 1)
	}
	for _, p := range f.Params {
		add(p.Typ)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if hasSlot(in) {
				l.slotOf[in.ID] = add(in.Typ)
			}
		}
	}
	return l
}

// funcBinding is one VM's view of one function: the program's code objects,
// resolved once on the function's first call, plus what belongs to this run
// alone — the profile bucket and the constant pool baked against this VM's
// address tables. cf and pool are set on the compiled engine and stay nil on
// the reference interpreter, which needs the layout alone.
type funcBinding struct {
	*funcLayout // nil until the first call
	prof        *obs.FuncProfile
	cf          *cfunc
	pool        []uint64 // cf.consts with the relocs baked (VM.bakePool)
}

// bind resolves fb, the binding of function idx, on its first call in this
// VM, lowering the function into the program first if no VM has called it
// yet.
func (v *VM) bind(fb *funcBinding, idx int32) {
	code, f := &v.prog.funcs[idx], v.prog.mod.Funcs[idx]
	fb.prof = v.Prof.Func(int(idx))
	fb.funcLayout = publish(&code.layout, func() *funcLayout { return buildLayout(f) })
	if !v.compiled {
		return
	}
	fb.cf = publish(&code.cf, func() *cfunc {
		cf := v.prog.compileClosure(fb.funcLayout)
		v.closureBlocks += uint64(len(cf.blocks))
		return cf
	})
	fb.pool = append([]uint64(nil), fb.cf.consts...)
	v.bakePool(fb)
}

// callIdx runs one activation of function idx on this VM's engine.
func (v *VM) callIdx(t *thread, idx int32, args []uint64) (uint64, error) {
	fb := &v.bound[idx]
	if fb.funcLayout == nil {
		v.bind(fb, idx)
	}
	if fb.cf != nil {
		return v.ccall(t, fb, args)
	}
	return v.callFunc(t, fb, args)
}

// call dispatches a call by function value: thread entry points and the
// reference interpreter's call sites. Compiled call sites carry the
// callee's index and skip the map.
func (v *VM) call(t *thread, f *ir.Func, args []uint64) (uint64, error) {
	if f.IsDecl() {
		return v.callBuiltin(t, f, args)
	}
	return v.callIdx(t, v.prog.funcIdx[f], args)
}
