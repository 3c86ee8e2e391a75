package ir

import (
	"fmt"
	"strconv"
)

// Op enumerates instruction opcodes. Op, Pred and GuardKind are a byte each
// so that the three and Instr.ID share one word of an Instr.
type Op uint8

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Integer arithmetic and bitwise ops: two integer operands.
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpUDiv
	OpURem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr

	// Floating-point arithmetic: two f64 operands.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons: produce i1. Pred field selects the predicate.
	OpICmp
	OpFCmp

	// Conversions: one operand; result type in Typ.
	OpTrunc
	OpZExt
	OpSExt
	OpPtrToInt
	OpIntToPtr
	OpSIToFP
	OpFPToSI

	// Memory.
	OpAlloca // stack allocation; Elem type + count operand
	OpLoad   // load Elem from pointer operand
	OpStore  // store operand[0] to pointer operand[1]
	OpGEP    // pointer arithmetic; Elem type scales index operands

	// Control flow and misc.
	OpPhi    // SSA phi; operands parallel to Preds blocks
	OpSelect // select cond, a, b
	OpCall   // call Callee(operands...)
	OpBr     // unconditional branch to Succs[0]
	OpCondBr // conditional branch: operand[0] ? Succs[0] : Succs[1]
	OpRet    // return (optional operand)
	OpUnreachable

	// CARAT instrumentation. These are inserted by the CARAT passes
	// (internal/passes) and consumed by the VM and the cost model.
	OpGuard // validate [addr, addr+size) against the kernel region set
)

// Pred is a comparison predicate for ICmp and FCmp.
type Pred uint8

// Comparison predicates. Integer comparisons are signed unless prefixed U.
const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
	PredULT
	PredULE
	PredUGT
	PredUGE
)

var predNames = [...]string{
	PredEQ: "eq", PredNE: "ne", PredLT: "slt", PredLE: "sle",
	PredGT: "sgt", PredGE: "sge", PredULT: "ult", PredULE: "ule",
	PredUGT: "ugt", PredUGE: "uge",
}

// String returns the textual predicate name ("eq", "slt", ...), or "" for
// a value that is not a predicate.
func (p Pred) String() string { return nameOf(predNames[:], int(p)) }

// GuardKind says what kind of access a guard protects; the distinction
// matters for the cost model and for Table 1/Figure 3 accounting.
type GuardKind uint8

// Guard kinds.
const (
	GuardLoad       GuardKind = iota // precedes a load
	GuardStore                       // precedes a store
	GuardCall                        // precedes a call: checks the callee's stack footprint
	GuardRange                       // merged read guard covering [lo, lo+span) (Opt 2 output)
	GuardRangeStore                  // merged write guard covering [lo, lo+span)
)

var guardKindNames = [...]string{
	GuardLoad: "load", GuardStore: "store", GuardCall: "call",
	GuardRange: "range", GuardRangeStore: "rangestore",
}

// String returns the guard kind's textual name, or "" for a value that is
// not a guard kind.
func (k GuardKind) String() string { return nameOf(guardKindNames[:], int(k)) }

// Instr is a single IR instruction. All opcodes share this struct; the
// meaning of the fields depends on Op as documented on the Op constants.
type Instr struct {
	Op   Op
	Pred Pred      // ICmp/FCmp predicate
	Kind GuardKind // Guard kind
	// ID is what per-function tables index by: unique within the function,
	// 1 ≤ ID < Func.NumIDs(), handed out when the instruction first enters a
	// block (Block.adopt) and kept through moves and removals. Structural,
	// like Param.Idx: never encoded.
	ID int32

	Name string  // SSA name of the result ("" when the op produces no value)
	Typ  *Type   // result type (Void for stores, branches, guards, ...)
	Args []Value // operands

	Elem  *Type    // Alloca/Load/GEP element type
	Preds []*Block // Phi: incoming blocks, parallel to Args
	Succs []*Block // Br/CondBr: successor blocks

	Callee *Func // Call: target (direct calls only; see Func.Name)

	Block *Block // owning block (maintained by Block methods)
}

// Type implements Value.
func (in *Instr) Type() *Type { return in.Typ }

// Ref implements Value.
func (in *Instr) Ref() string { return "%" + in.Name }

// IsTerminator reports whether the instruction ends a basic block.
func (in *Instr) IsTerminator() bool {
	switch in.Op {
	case OpBr, OpCondBr, OpRet, OpUnreachable:
		return true
	}
	return false
}

// AccessSize returns the number of bytes accessed by a load or store.
func (in *Instr) AccessSize() int64 {
	switch in.Op {
	case OpLoad:
		return in.Elem.Size()
	case OpStore:
		return in.Args[0].Type().Size()
	}
	panic(fmt.Sprintf("ir: AccessSize on %v", in.Op))
}

var opNames = [...]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv", OpSRem: "srem",
	OpUDiv: "udiv", OpURem: "urem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpLShr: "lshr", OpAShr: "ashr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpICmp: "icmp", OpFCmp: "fcmp",
	OpTrunc: "trunc", OpZExt: "zext", OpSExt: "sext",
	OpPtrToInt: "ptrtoint", OpIntToPtr: "inttoptr", OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpGEP: "gep",
	OpPhi: "phi", OpSelect: "select", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret", OpUnreachable: "unreachable",
	OpGuard: "guard",
}

// nameOf returns names[i], or "" when i names nothing.
func nameOf(names []string, i int) string {
	if i < 0 || i >= len(names) {
		return ""
	}
	return names[i]
}

// byName inverts a name table for the parser: name -> index. Slots the
// table leaves empty (OpInvalid) name nothing.
func byName[T ~uint8](names []string) map[string]T {
	m := make(map[string]T, len(names))
	for i, s := range names {
		if s != "" {
			m[s] = T(i)
		}
	}
	return m
}

var (
	opByName        = byName[Op](opNames[:])
	predByName      = byName[Pred](predNames[:])
	guardKindByName = byName[GuardKind](guardKindNames[:])
)

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s := nameOf(opNames[:], int(o)); s != "" {
		return s
	}
	return "op(" + strconv.Itoa(int(o)) + ")"
}

// IsBinary reports whether o is a two-operand arithmetic/bitwise op.
func (o Op) IsBinary() bool {
	return (o >= OpAdd && o <= OpAShr) || (o >= OpFAdd && o <= OpFDiv)
}

// IsCast reports whether o is a conversion op.
func (o Op) IsCast() bool { return o >= OpTrunc && o <= OpFPToSI }

// HasResult reports whether an instruction with opcode o produces an SSA
// value.
func (o Op) HasResult() bool {
	switch o {
	case OpStore, OpBr, OpCondBr, OpRet, OpUnreachable, OpGuard:
		return false
	case OpCall:
		return true // caller must check for void result type
	}
	return true
}
