package ir

import (
	"fmt"
	"slices"
	"strconv"
)

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator. Blocks also serve as branch targets.
type Block struct {
	Name   string
	Instrs []*Instr
	Fn     *Func
	// Idx is the block's position in Fn.Blocks, set where it is appended
	// (Func.NewBlock, the parser's label definition); blocks are never removed
	// or reordered, so per-function tables index by it.
	Idx int
}

// adopt makes b the owner of in and numbers in the first time it enters a
// block. Append, Insert and Edit are the only ways in, all through here.
func (b *Block) adopt(in *Instr) {
	in.Block = b
	if in.ID == 0 {
		b.Fn.lastID++
		in.ID = b.Fn.lastID
	}
}

// Append adds an instruction to the end of the block and sets its owner.
func (b *Block) Append(in *Instr) *Instr {
	b.adopt(in)
	b.Instrs = append(b.Instrs, in)
	return in
}

// Insert places ins, in order, before the instruction at index i (at the end
// when i is len(b.Instrs)): one shift of the block's tail for the whole batch,
// O(n + k). A pass that moves instructions into a block gathers them first
// and places them with one Insert.
func (b *Block) Insert(i int, ins ...*Instr) {
	for _, in := range ins {
		b.adopt(in)
	}
	b.Instrs = slices.Insert(b.Instrs, i, ins...)
}

// Edit rebuilds the block's instruction list in one pass. visit is called
// once per instruction, in order, and returns what becomes of it: an
// instruction to put immediately before it and one to put immediately after
// it (nil for none; neither is itself visited), and whether it stays. A pass
// that touches k instructions of an n-instruction block this way costs
// O(n + k); one that searched the block and shifted its tail per edit would
// cost O(n·k).
//
// The result is written back into the block's own array for as long as the
// write position stays behind the read position — always, for a visit that
// only drops — and moves to a new array the first time an insertion would
// land on an instruction not yet visited. visit must not touch b.Instrs.
func (b *Block) Edit(visit func(in *Instr) (before, after *Instr, keep bool)) {
	src := b.Instrs
	out, inPlace := src[:0], true
	for i, in := range src {
		before, after, keep := visit(in)
		if !keep {
			in.Block = nil
			in = nil
		}
		for _, x := range [...]*Instr{before, in, after} {
			if x == nil {
				continue
			}
			if inPlace && len(out) > i { // slots up to i are consumed; the next one is not
				// Room for one insertion per instruction, the most guard injection makes.
				out = append(make([]*Instr, 0, 2*len(src)), out...)
				inPlace = false
			}
			b.adopt(x)
			out = append(out, x)
		}
	}
	if inPlace {
		clear(src[len(out):]) // a dropped instruction must not live on in the array's tail
	}
	b.Instrs = out
}

// Term returns the block's terminator, or nil if the block is unterminated.
func (b *Block) Term() *Instr {
	if n := len(b.Instrs); n > 0 && b.Instrs[n-1].IsTerminator() {
		return b.Instrs[n-1]
	}
	return nil
}

// Succs returns the block's successor blocks (empty for ret/unreachable).
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Phis returns the run of phi instructions at the head of the block.
func (b *Block) Phis() []*Instr {
	var n int
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return b.Instrs[:n]
}

// Ref returns the block's label syntax.
func (b *Block) Ref() string { return "^" + b.Name }

// Func is an IR function. Functions may be defined (Blocks non-empty) or
// declared externally (Blocks empty), in which case the VM resolves them to
// built-in implementations (e.g. malloc, free, runtime callbacks).
type Func struct {
	Name   string
	Params []*Param
	RetTyp *Type
	Blocks []*Block
	Mod    *Module

	// StackFootprint is the maximum number of stack bytes the function's
	// compiler-produced code may touch (allocas + spill estimate). Call
	// guards check this against the current region, per paper §3.
	StackFootprint int64

	nameCnt  int
	freshCnt int
	lastID   int32 // the highest Instr.ID handed out (Block.adopt)
}

// NumIDs returns the size of a table indexed by Instr.ID: one past the
// highest ID handed out so far (none is 0). An instruction that enters later
// gets an ID past it: DESIGN.md "Dense numbering" has the rule for reading one.
func (f *Func) NumIDs() int { return int(f.lastID) + 1 }

// FreshName returns a new SSA value name "prefix.N" with a per-function
// counter, so names synthesized by passes are deterministic regardless of
// which other functions were compiled (or in what order) before this one.
func (f *Func) FreshName(prefix string) string {
	f.freshCnt++
	return prefix + "." + strconv.Itoa(f.freshCnt)
}

// Type implements Value: a function used as an operand is its code address.
func (f *Func) Type() *Type { return Ptr }

// Ref implements Value.
func (f *Func) Ref() string { return "@" + f.Name }

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// IsDecl reports whether f is an external declaration with no body.
func (f *Func) IsDecl() bool { return len(f.Blocks) == 0 }

// NewBlock appends a new block with a unique name derived from hint.
func (f *Func) NewBlock(hint string) *Block {
	if hint == "" {
		hint = "bb"
	}
	name := hint
	for _, b := range f.Blocks {
		if b.Name == name {
			f.nameCnt++
			name = hint + strconv.Itoa(f.nameCnt)
		}
	}
	b := &Block{Name: name, Fn: f, Idx: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// uniqueName returns a fresh SSA value name from hint.
func (f *Func) uniqueName(hint string) string {
	if hint == "" {
		hint = "v"
	}
	f.nameCnt++
	return hint + strconv.Itoa(f.nameCnt)
}

// ForEachInstr calls fn for every instruction in the function in block
// order. fn may not mutate block structure.
func (f *Func) ForEachInstr(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// NumInstrs returns the total instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a translation unit: globals plus functions. A module is the
// unit of compilation, signing, loading, and execution.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}

// AddFunc creates a function with the given signature and adds it to m.
func (m *Module) AddFunc(name string, ret *Type, params ...*Param) *Func {
	f := &Func{Name: name, RetTyp: ret, Params: params, Mod: m}
	for i, p := range params {
		p.Idx = i
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// AddGlobal adds a global variable of the given element type to m.
func (m *Module) AddGlobal(name string, elem *Type) *Global {
	g := &Global{Name: name, Elem: elem, Mutable: true}
	m.Globals = append(m.Globals, g)
	return g
}

// DeclareFunc returns the declaration of an external function, creating it
// if needed. Used for runtime entry points (malloc, free, carat.*).
func (m *Module) DeclareFunc(name string, ret *Type, paramTypes ...*Type) *Func {
	if f := m.Func(name); f != nil {
		return f
	}
	params := make([]*Param, len(paramTypes))
	for i, t := range paramTypes {
		params[i] = &Param{Name: fmt.Sprintf("a%d", i), Typ: t, Idx: i}
	}
	return m.AddFunc(name, ret, params...)
}

// NumInstrs returns the total instruction count across all functions.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// Names of the runtime entry points recognized by the VM and inserted by
// the tracking pass. They mirror the paper's runtime callbacks (§4.1.2).
const (
	FnMalloc       = "malloc"
	FnCalloc       = "calloc"
	FnFree         = "free"
	FnTrackAlloc   = "carat.alloc"   // (ptr, i64 size)
	FnTrackFree    = "carat.free"    // (ptr)
	FnTrackEscape  = "carat.escape"  // (ptr loc, ptr value)
	FnTrackCallGrd = "carat.callgrd" // internal use by cost accounting
	FnPrintI64     = "print_i64"
	FnPrintF64     = "print_f64"
)

// IsRuntimeFn reports whether name names a VM-provided builtin.
func IsRuntimeFn(name string) bool {
	switch name {
	case FnMalloc, FnCalloc, FnFree, FnTrackAlloc, FnTrackFree, FnTrackEscape,
		FnTrackCallGrd, FnPrintI64, FnPrintF64:
		return true
	}
	return false
}

// IsAllocFn reports whether name is a heap allocation function.
func IsAllocFn(name string) bool { return name == FnMalloc || name == FnCalloc }
