package ir

import "fmt"

// Builder provides a convenient, positioned API for constructing IR, in the
// style of LLVM's IRBuilder. A builder points at the end of a block; every
// emit method appends there and returns the new instruction (which is also
// a Value when the op produces a result).
type Builder struct {
	Fn  *Func
	Blk *Block
}

// NewBuilder returns a builder positioned at the end of the entry block of
// f, creating the entry block if the function has none.
func NewBuilder(f *Func) *Builder {
	if len(f.Blocks) == 0 {
		f.NewBlock("entry")
	}
	return &Builder{Fn: f, Blk: f.Blocks[0]}
}

// SetBlock repositions the builder at the end of b.
func (bld *Builder) SetBlock(b *Block) { bld.Blk = b }

// NewBlock creates a block in the builder's function without moving the
// insertion point.
func (bld *Builder) NewBlock(hint string) *Block { return bld.Fn.NewBlock(hint) }

func (bld *Builder) emit(in *Instr) *Instr {
	if in.Name == "" && in.Op.HasResult() && in.Typ != Void {
		in.Name = bld.Fn.uniqueName("v")
	}
	return bld.Blk.Append(in)
}

// Binary emits a two-operand arithmetic or bitwise instruction.
func (bld *Builder) Binary(op Op, a, b Value) *Instr {
	if !op.IsBinary() {
		panic(fmt.Sprintf("ir: Binary with op %v", op))
	}
	return bld.emit(&Instr{Op: op, Typ: a.Type(), Args: []Value{a, b}})
}

// Add emits an integer add.
func (bld *Builder) Add(a, b Value) *Instr { return bld.Binary(OpAdd, a, b) }

// Sub emits an integer subtract.
func (bld *Builder) Sub(a, b Value) *Instr { return bld.Binary(OpSub, a, b) }

// Mul emits an integer multiply.
func (bld *Builder) Mul(a, b Value) *Instr { return bld.Binary(OpMul, a, b) }

// And emits a bitwise and.
func (bld *Builder) And(a, b Value) *Instr { return bld.Binary(OpAnd, a, b) }

// Or emits a bitwise or.
func (bld *Builder) Or(a, b Value) *Instr { return bld.Binary(OpOr, a, b) }

// Xor emits a bitwise xor.
func (bld *Builder) Xor(a, b Value) *Instr { return bld.Binary(OpXor, a, b) }

// Shl emits a left shift.
func (bld *Builder) Shl(a, b Value) *Instr { return bld.Binary(OpShl, a, b) }

// LShr emits a logical right shift.
func (bld *Builder) LShr(a, b Value) *Instr { return bld.Binary(OpLShr, a, b) }

// URem emits an unsigned remainder.
func (bld *Builder) URem(a, b Value) *Instr { return bld.Binary(OpURem, a, b) }

// FAdd emits a floating add.
func (bld *Builder) FAdd(a, b Value) *Instr { return bld.Binary(OpFAdd, a, b) }

// FSub emits a floating subtract.
func (bld *Builder) FSub(a, b Value) *Instr { return bld.Binary(OpFSub, a, b) }

// FMul emits a floating multiply.
func (bld *Builder) FMul(a, b Value) *Instr { return bld.Binary(OpFMul, a, b) }

// FDiv emits a floating divide.
func (bld *Builder) FDiv(a, b Value) *Instr { return bld.Binary(OpFDiv, a, b) }

// ICmp emits an integer comparison producing i1.
func (bld *Builder) ICmp(p Pred, a, b Value) *Instr {
	return bld.emit(&Instr{Op: OpICmp, Typ: I1, Pred: p, Args: []Value{a, b}})
}

// FCmp emits a floating comparison producing i1.
func (bld *Builder) FCmp(p Pred, a, b Value) *Instr {
	return bld.emit(&Instr{Op: OpFCmp, Typ: I1, Pred: p, Args: []Value{a, b}})
}

// Cast emits a conversion of v to type to.
func (bld *Builder) Cast(op Op, v Value, to *Type) *Instr {
	if !op.IsCast() {
		panic(fmt.Sprintf("ir: Cast with op %v", op))
	}
	return bld.emit(&Instr{Op: op, Typ: to, Args: []Value{v}})
}

// Alloca emits a stack allocation of count elements of type elem.
func (bld *Builder) Alloca(elem *Type, count Value) *Instr {
	if count == nil {
		count = ConstInt(I64, 1)
	}
	return bld.emit(&Instr{Op: OpAlloca, Typ: Ptr, Elem: elem, Args: []Value{count}})
}

// Load emits a load of an elem-typed value from ptr.
func (bld *Builder) Load(elem *Type, ptr Value) *Instr {
	return bld.emit(&Instr{Op: OpLoad, Typ: elem, Elem: elem, Args: []Value{ptr}})
}

// Store emits a store of val to ptr.
func (bld *Builder) Store(val, ptr Value) *Instr {
	return bld.emit(&Instr{Op: OpStore, Typ: Void, Args: []Value{val, ptr}})
}

// GEP emits pointer arithmetic: ptr + sum(indices scaled by elem size).
// With one index i the result is ptr + i*sizeof(elem); additional indices
// step into aggregate fields/elements as in LLVM.
func (bld *Builder) GEP(elem *Type, ptr Value, indices ...Value) *Instr {
	args := append([]Value{ptr}, indices...)
	return bld.emit(&Instr{Op: OpGEP, Typ: Ptr, Elem: elem, Args: args})
}

// Phi emits an empty phi of type t; fill it with AddIncoming.
func (bld *Builder) Phi(t *Type) *Instr {
	// Phis must precede non-phi instructions; insert after existing phis.
	in := &Instr{Op: OpPhi, Typ: t, Name: bld.Fn.uniqueName("v")}
	bld.Blk.Insert(len(bld.Blk.Phis()), in)
	return in
}

// AddIncoming appends an incoming (value, predecessor) pair to a phi.
func AddIncoming(phi *Instr, v Value, pred *Block) {
	if phi.Op != OpPhi {
		panic("ir: AddIncoming on non-phi")
	}
	phi.Args = append(phi.Args, v)
	phi.Preds = append(phi.Preds, pred)
}

// Select emits select cond ? a : b.
func (bld *Builder) Select(cond, a, b Value) *Instr {
	return bld.emit(&Instr{Op: OpSelect, Typ: a.Type(), Args: []Value{cond, a, b}})
}

// Call emits a direct call to callee.
func (bld *Builder) Call(callee *Func, args ...Value) *Instr {
	return bld.emit(&Instr{Op: OpCall, Typ: callee.RetTyp, Callee: callee, Args: args})
}

// Br emits an unconditional branch.
func (bld *Builder) Br(target *Block) *Instr {
	return bld.emit(&Instr{Op: OpBr, Typ: Void, Succs: []*Block{target}})
}

// CondBr emits a conditional branch.
func (bld *Builder) CondBr(cond Value, then, els *Block) *Instr {
	return bld.emit(&Instr{Op: OpCondBr, Typ: Void, Args: []Value{cond}, Succs: []*Block{then, els}})
}

// Ret emits a return; v may be nil for void functions.
func (bld *Builder) Ret(v Value) *Instr {
	in := &Instr{Op: OpRet, Typ: Void}
	if v != nil {
		in.Args = []Value{v}
	}
	return bld.emit(in)
}

// Unreachable emits an unreachable terminator.
func (bld *Builder) Unreachable() *Instr {
	return bld.emit(&Instr{Op: OpUnreachable, Typ: Void})
}

// Guard emits a CARAT guard protecting an access of size bytes at addr.
func (bld *Builder) Guard(kind GuardKind, addr Value, size Value) *Instr {
	return bld.emit(&Instr{Op: OpGuard, Typ: Void, Kind: kind, Args: []Value{addr, size}})
}

// I64 is shorthand for an i64 constant.
func (bld *Builder) I64(v int64) *Const { return ConstInt(I64, v) }

// F64V is shorthand for an f64 constant.
func (bld *Builder) F64V(v float64) *Const { return ConstFloat(v) }

// Loop is a convenience for emitting a canonical counted loop
//
//	for i := from; i < to; i += step { body(i) }
//
// It creates header/body/latch/exit blocks, positions the builder in the
// body when calling body with the induction value, and leaves the builder
// in the exit block. body must not terminate its final block.
func (bld *Builder) Loop(from, to, step Value, body func(i Value)) {
	header := bld.NewBlock("loop.header")
	bodyB := bld.NewBlock("loop.body")
	latch := bld.NewBlock("loop.latch")
	exit := bld.NewBlock("loop.exit")

	pre := bld.Blk
	bld.Br(header)

	bld.SetBlock(header)
	iv := bld.Phi(from.Type())
	AddIncoming(iv, from, pre)
	cmp := bld.ICmp(PredLT, iv, to)
	bld.CondBr(cmp, bodyB, exit)

	bld.SetBlock(bodyB)
	body(iv)
	bld.Br(latch)

	bld.SetBlock(latch)
	next := bld.Add(iv, step)
	AddIncoming(iv, next, latch)
	bld.Br(header)

	bld.SetBlock(exit)
}
