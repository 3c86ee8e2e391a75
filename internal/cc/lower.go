package cc

import (
	"fmt"

	"carat/internal/ir"
)

// Compile parses and lowers CARAT-C source to an IR module ready for the
// pass pipeline.
func Compile(name, src string) (*ir.Module, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(name, prog)
}

// ctype is the lowering-time type of an expression.
type ctype int

const (
	cInt ctype = iota
	cFloat
	cPtr
	cBool // i1, the transient type of comparisons
	cVoid
)

func (c ctype) String() string {
	return [...]string{"int", "float", "ptr", "bool", "void"}[c]
}

func (tn TypeName) ctype() ctype {
	switch tn.Kind {
	case "int":
		return cInt
	case "float":
		return cFloat
	case "ptr":
		return cPtr
	}
	return cVoid
}

func irType(c ctype) *ir.Type {
	switch c {
	case cInt:
		return ir.I64
	case cFloat:
		return ir.F64
	case cPtr:
		return ir.Ptr
	case cBool:
		return ir.I1
	}
	return ir.Void
}

// local is a stack slot for a CARAT-C variable.
type local struct {
	slot ir.Value // alloca
	typ  ctype
}

// lowerer carries the per-module lowering state.
type lowerer struct {
	m       *ir.Module
	prog    *Program
	globals map[string]*globalInfo
	funcs   map[string]*FuncDecl
	irFuncs map[string]*ir.Func

	// builtins
	malloc, free, printI, printF *ir.Func

	// slots numbers the module's stack slots: value names depend on the
	// source alone, not on what the process compiled before.
	slots int
	// allocas holds the function being lowered's stack slots, in creation
	// order, for its entry block's head; each function reuses the array.
	allocas []*ir.Instr
}

type globalInfo struct {
	g    *ir.Global
	elem ctype
	arr  bool
}

// Lower converts a parsed program into an IR module.
func Lower(name string, prog *Program) (*ir.Module, error) {
	lo := &lowerer{
		m:       ir.NewModule(name),
		prog:    prog,
		globals: map[string]*globalInfo{},
		funcs:   map[string]*FuncDecl{},
		irFuncs: map[string]*ir.Func{},
	}
	lo.malloc = lo.m.DeclareFunc(ir.FnMalloc, ir.Ptr, ir.I64)
	lo.free = lo.m.DeclareFunc(ir.FnFree, ir.Void, ir.Ptr)
	lo.printI = lo.m.DeclareFunc(ir.FnPrintI64, ir.Void, ir.I64)
	lo.printF = lo.m.DeclareFunc(ir.FnPrintF64, ir.Void, ir.F64)

	for _, g := range prog.Globals {
		if _, dup := lo.globals[g.Name]; dup {
			return nil, fmt.Errorf("cc: line %d: duplicate global %q", g.Line, g.Name)
		}
		elem := g.Type.ctype()
		var t *ir.Type
		if g.Type.ArrLen > 0 {
			t = ir.ArrayOf(irType(elem), g.Type.ArrLen)
		} else {
			t = irType(elem)
		}
		lo.globals[g.Name] = &globalInfo{
			g:    lo.m.AddGlobal(g.Name, t),
			elem: elem,
			arr:  g.Type.ArrLen > 0,
		}
	}

	// Declare all function signatures first so calls resolve forward.
	for _, f := range prog.Funcs {
		if _, dup := lo.funcs[f.Name]; dup {
			return nil, fmt.Errorf("cc: line %d: duplicate function %q", f.Line, f.Name)
		}
		lo.funcs[f.Name] = f
		params := make([]*ir.Param, len(f.Params))
		for i, pr := range f.Params {
			params[i] = &ir.Param{Name: pr.Name, Typ: irType(pr.Type.ctype())}
		}
		ret := ir.Void
		if f.Ret.Kind != "" {
			ret = irType(f.Ret.ctype())
		}
		lo.irFuncs[f.Name] = lo.m.AddFunc(f.Name, ret, params...)
	}
	for _, f := range prog.Funcs {
		if err := lo.lowerFunc(f); err != nil {
			return nil, err
		}
	}
	if f := lo.m.Func("main"); f == nil || f.IsDecl() {
		return nil, fmt.Errorf("cc: program has no func main")
	}
	if err := lo.m.Verify(); err != nil {
		return nil, fmt.Errorf("cc: internal: lowered module invalid: %w", err)
	}
	return lo.m, nil
}

// fnLowerer is the per-function lowering state.
type fnLowerer struct {
	*lowerer
	fd     *FuncDecl
	fn     *ir.Func
	b      *ir.Builder
	scopes []map[string]local
	done   bool // current block already terminated
}

// newSlot creates a stack slot for the function's ENTRY block regardless of
// the current lowering position: a `var` inside a loop body must not
// re-alloca every iteration (the frame would grow without bound). lowerFunc
// places every slot at the entry block's head once the body is lowered.
func (fl *fnLowerer) newSlot(t *ir.Type) ir.Value {
	fl.slots++
	in := &ir.Instr{Op: ir.OpAlloca, Name: fmt.Sprintf("slot%d", fl.slots), Typ: ir.Ptr,
		Elem: t, Args: []ir.Value{ir.ConstInt(ir.I64, 1)}}
	fl.allocas = append(fl.allocas, in)
	return in
}

func (lo *lowerer) lowerFunc(fd *FuncDecl) error {
	fn := lo.irFuncs[fd.Name]
	fl := &fnLowerer{lowerer: lo, fd: fd, fn: fn, b: ir.NewBuilder(fn)}
	fl.push()
	// Spill parameters into stack slots so they are assignable.
	for i, pr := range fd.Params {
		slot := fl.newSlot(irType(pr.Type.ctype()))
		fl.b.Store(fn.Params[i], slot)
		fl.scopes[0][pr.Name] = local{slot: slot, typ: pr.Type.ctype()}
	}
	if err := fl.lowerBlock(fd.Body); err != nil {
		return err
	}
	if !fl.done {
		// Fall off the end: implicit return.
		if fd.Ret.Kind == "" {
			fl.b.Ret(nil)
		} else if fd.Ret.ctype() == cFloat {
			fl.b.Ret(ir.ConstFloat(0))
		} else if fd.Ret.ctype() == cPtr {
			fl.b.Ret(ir.ConstNull())
		} else {
			fl.b.Ret(ir.ConstInt(ir.I64, 0))
		}
	}
	fn.Entry().Insert(0, fl.allocas...)
	fl.allocas = fl.allocas[:0]
	return nil
}

func (fl *fnLowerer) push() { fl.scopes = append(fl.scopes, map[string]local{}) }
func (fl *fnLowerer) pop()  { fl.scopes = fl.scopes[:len(fl.scopes)-1] }

func (fl *fnLowerer) lookup(name string) (local, bool) {
	for i := len(fl.scopes) - 1; i >= 0; i-- {
		if l, ok := fl.scopes[i][name]; ok {
			return l, true
		}
	}
	return local{}, false
}

func (fl *fnLowerer) lowerBlock(b *Block) error {
	fl.push()
	defer fl.pop()
	for _, s := range b.Stmts {
		if fl.done {
			return nil // unreachable code after return: drop it
		}
		if err := fl.lowerStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (fl *fnLowerer) lowerStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return fl.lowerBlock(st)

	case *VarStmt:
		v, t, err := fl.lowerExpr(st.Init)
		if err != nil {
			return err
		}
		if t == cBool {
			v, t = fl.boolToInt(v), cInt
		}
		if t == cVoid {
			return fmt.Errorf("cc: line %d: void value in var initializer", st.Line)
		}
		slot := fl.newSlot(irType(t))
		fl.b.Store(v, slot)
		fl.scopes[len(fl.scopes)-1][st.Name] = local{slot: slot, typ: t}
		return nil

	case *AssignStmt:
		v, vt, err := fl.lowerExpr(st.Value)
		if err != nil {
			return err
		}
		if vt == cBool {
			v, vt = fl.boolToInt(v), cInt
		}
		addr, et, err := fl.lvalueAddr(st.Target)
		if err != nil {
			return err
		}
		if et != vt {
			return fmt.Errorf("cc: line %d: cannot assign %s to %s", st.Line, vt, et)
		}
		fl.b.Store(v, addr)
		return nil

	case *ReturnStmt:
		want := fl.fd.Ret.ctype()
		if st.Value == nil {
			if fl.fd.Ret.Kind != "" {
				return fmt.Errorf("cc: line %d: missing return value", st.Line)
			}
			fl.b.Ret(nil)
			fl.done = true
			return nil
		}
		v, t, err := fl.lowerExpr(st.Value)
		if err != nil {
			return err
		}
		if t == cBool {
			v, t = fl.boolToInt(v), cInt
		}
		if fl.fd.Ret.Kind == "" || t != want {
			return fmt.Errorf("cc: line %d: return type mismatch (%s vs %s)", st.Line, t, want)
		}
		fl.b.Ret(v)
		fl.done = true
		return nil

	case *ExprStmt:
		_, _, err := fl.lowerExpr(st.X)
		return err

	case *IfStmt:
		cond, err := fl.lowerCond(st.Cond)
		if err != nil {
			return err
		}
		thenB := fl.b.NewBlock("if.then")
		elseB := fl.b.NewBlock("if.else")
		exitB := fl.b.NewBlock("if.exit")
		fl.b.CondBr(cond, thenB, elseB)

		fl.b.SetBlock(thenB)
		fl.done = false
		if err := fl.lowerBlock(st.Then); err != nil {
			return err
		}
		thenDone := fl.done
		if !thenDone {
			fl.b.Br(exitB)
		}

		fl.b.SetBlock(elseB)
		fl.done = false
		if st.Else != nil {
			if err := fl.lowerStmt(st.Else); err != nil {
				return err
			}
		}
		elseDone := fl.done
		if !elseDone {
			fl.b.Br(exitB)
		}

		fl.b.SetBlock(exitB)
		fl.done = thenDone && elseDone
		if fl.done {
			// Exit block is unreachable; terminate it for the verifier.
			fl.b.Unreachable()
		}
		return nil

	case *WhileStmt:
		head := fl.b.NewBlock("while.head")
		body := fl.b.NewBlock("while.body")
		exit := fl.b.NewBlock("while.exit")
		fl.b.Br(head)
		fl.b.SetBlock(head)
		cond, err := fl.lowerCond(st.Cond)
		if err != nil {
			return err
		}
		fl.b.CondBr(cond, body, exit)
		fl.b.SetBlock(body)
		fl.done = false
		if err := fl.lowerBlock(st.Body); err != nil {
			return err
		}
		if !fl.done {
			fl.b.Br(head)
		}
		fl.b.SetBlock(exit)
		fl.done = false
		return nil

	case *ForStmt:
		fl.push()
		defer fl.pop()
		if st.Init != nil {
			if err := fl.lowerStmt(st.Init); err != nil {
				return err
			}
		}
		head := fl.b.NewBlock("for.head")
		body := fl.b.NewBlock("for.body")
		post := fl.b.NewBlock("for.post")
		exit := fl.b.NewBlock("for.exit")
		fl.b.Br(head)
		fl.b.SetBlock(head)
		if st.Cond != nil {
			cond, err := fl.lowerCond(st.Cond)
			if err != nil {
				return err
			}
			fl.b.CondBr(cond, body, exit)
		} else {
			fl.b.Br(body)
		}
		fl.b.SetBlock(body)
		fl.done = false
		if err := fl.lowerBlock(st.Body); err != nil {
			return err
		}
		if !fl.done {
			fl.b.Br(post)
		}
		fl.b.SetBlock(post)
		if st.Post != nil {
			if err := fl.lowerStmt(st.Post); err != nil {
				return err
			}
		}
		fl.b.Br(head)
		fl.b.SetBlock(exit)
		fl.done = false
		return nil
	}
	return fmt.Errorf("cc: unhandled statement %T", s)
}

// boolToInt widens an i1 to i64.
func (fl *fnLowerer) boolToInt(v ir.Value) ir.Value {
	return fl.b.Cast(ir.OpZExt, v, ir.I64)
}

// lowerCond lowers an expression used as a branch condition to an i1.
func (fl *fnLowerer) lowerCond(e Expr) (ir.Value, error) {
	v, t, err := fl.lowerExpr(e)
	if err != nil {
		return nil, err
	}
	switch t {
	case cBool:
		return v, nil
	case cInt:
		return fl.b.ICmp(ir.PredNE, v, ir.ConstInt(ir.I64, 0)), nil
	case cPtr:
		return fl.b.ICmp(ir.PredNE, v, ir.ConstNull()), nil
	}
	return nil, fmt.Errorf("cc: %s value used as condition", t)
}

// lvalueAddr lowers an assignment target to (address, element type).
func (fl *fnLowerer) lvalueAddr(e Expr) (ir.Value, ctype, error) {
	switch x := e.(type) {
	case *Ident:
		if l, ok := fl.lookup(x.Name); ok {
			return l.slot, l.typ, nil
		}
		if g, ok := fl.globals[x.Name]; ok {
			if g.arr {
				return nil, cVoid, fmt.Errorf("cc: line %d: cannot assign to array %q", x.Line, x.Name)
			}
			return g.g, g.elem, nil
		}
		return nil, cVoid, fmt.Errorf("cc: line %d: undefined variable %q", x.Line, x.Name)
	case *IndexExpr:
		return fl.indexAddr(x)
	}
	return nil, cVoid, fmt.Errorf("cc: invalid assignment target")
}

// indexAddr lowers base[idx] to (element address, element type).
func (fl *fnLowerer) indexAddr(x *IndexExpr) (ir.Value, ctype, error) {
	idx, it, err := fl.lowerExpr(x.Idx)
	if err != nil {
		return nil, cVoid, err
	}
	if it != cInt {
		return nil, cVoid, fmt.Errorf("cc: line %d: index must be int", x.Line)
	}
	// Global arrays keep their element type; raw pointers index as int.
	if id, ok := x.Base.(*Ident); ok {
		if g, okg := fl.globals[id.Name]; okg && g.arr {
			return fl.b.GEP(irType(g.elem), g.g, idx), g.elem, nil
		}
	}
	base, bt, err := fl.lowerExpr(x.Base)
	if err != nil {
		return nil, cVoid, err
	}
	if bt != cPtr {
		return nil, cVoid, fmt.Errorf("cc: line %d: cannot index %s", x.Line, bt)
	}
	return fl.b.GEP(ir.I64, base, idx), cInt, nil
}

var cmpPreds = map[string]ir.Pred{
	"==": ir.PredEQ, "!=": ir.PredNE,
	"<": ir.PredLT, "<=": ir.PredLE, ">": ir.PredGT, ">=": ir.PredGE,
}

var intOps = map[string]ir.Op{
	"+": ir.OpAdd, "-": ir.OpSub, "*": ir.OpMul, "/": ir.OpSDiv, "%": ir.OpSRem,
	"&": ir.OpAnd, "|": ir.OpOr, "^": ir.OpXor, "<<": ir.OpShl, ">>": ir.OpAShr,
}

var floatOps = map[string]ir.Op{
	"+": ir.OpFAdd, "-": ir.OpFSub, "*": ir.OpFMul, "/": ir.OpFDiv,
}

// lowerExpr lowers an expression to (value, type).
func (fl *fnLowerer) lowerExpr(e Expr) (ir.Value, ctype, error) {
	switch x := e.(type) {
	case *IntLit:
		return ir.ConstInt(ir.I64, x.Val), cInt, nil
	case *FloatLit:
		return ir.ConstFloat(x.Val), cFloat, nil

	case *Ident:
		if l, ok := fl.lookup(x.Name); ok {
			return fl.b.Load(irType(l.typ), l.slot), l.typ, nil
		}
		if g, ok := fl.globals[x.Name]; ok {
			if g.arr {
				return g.g, cPtr, nil // array decays to pointer
			}
			return fl.b.Load(irType(g.elem), g.g), g.elem, nil
		}
		return nil, cVoid, fmt.Errorf("cc: line %d: undefined variable %q", x.Line, x.Name)

	case *IndexExpr:
		addr, et, err := fl.indexAddr(x)
		if err != nil {
			return nil, cVoid, err
		}
		return fl.b.Load(irType(et), addr), et, nil

	case *UnExpr:
		v, t, err := fl.lowerExpr(x.X)
		if err != nil {
			return nil, cVoid, err
		}
		switch x.Op {
		case "-":
			switch t {
			case cInt:
				return fl.b.Sub(ir.ConstInt(ir.I64, 0), v), cInt, nil
			case cFloat:
				return fl.b.FSub(ir.ConstFloat(0), v), cFloat, nil
			}
		case "!":
			if t == cBool {
				return fl.b.Xor(v, ir.ConstInt(ir.I1, 1)), cBool, nil
			}
			if t == cInt {
				return fl.b.ICmp(ir.PredEQ, v, ir.ConstInt(ir.I64, 0)), cBool, nil
			}
		}
		return nil, cVoid, fmt.Errorf("cc: bad operand of unary %s", x.Op)

	case *BinExpr:
		return fl.lowerBin(x)

	case *CallExpr:
		return fl.lowerCall(x)
	}
	return nil, cVoid, fmt.Errorf("cc: unhandled expression %T", e)
}

func (fl *fnLowerer) lowerBin(x *BinExpr) (ir.Value, ctype, error) {
	// Short-circuit && and || lower through control flow.
	if x.Op == "&&" || x.Op == "||" {
		return fl.lowerShortCircuit(x)
	}
	l, lt, err := fl.lowerExpr(x.L)
	if err != nil {
		return nil, cVoid, err
	}
	r, rt, err := fl.lowerExpr(x.R)
	if err != nil {
		return nil, cVoid, err
	}
	if lt == cBool {
		l, lt = fl.boolToInt(l), cInt
	}
	if rt == cBool {
		r, rt = fl.boolToInt(r), cInt
	}
	if pred, ok := cmpPreds[x.Op]; ok {
		if lt != rt {
			return nil, cVoid, fmt.Errorf("cc: line %d: comparing %s with %s", x.Line, lt, rt)
		}
		if lt == cFloat {
			return fl.b.FCmp(pred, l, r), cBool, nil
		}
		return fl.b.ICmp(pred, l, r), cBool, nil
	}
	if lt != rt {
		return nil, cVoid, fmt.Errorf("cc: line %d: mixed operands %s %s %s", x.Line, lt, x.Op, rt)
	}
	switch lt {
	case cInt:
		op, ok := intOps[x.Op]
		if !ok {
			return nil, cVoid, fmt.Errorf("cc: line %d: bad int operator %q", x.Line, x.Op)
		}
		return fl.b.Binary(op, l, r), cInt, nil
	case cFloat:
		op, ok := floatOps[x.Op]
		if !ok {
			return nil, cVoid, fmt.Errorf("cc: line %d: bad float operator %q", x.Line, x.Op)
		}
		return fl.b.Binary(op, l, r), cFloat, nil
	}
	return nil, cVoid, fmt.Errorf("cc: line %d: bad operands of %q", x.Line, x.Op)
}

// lowerShortCircuit lowers && and || with proper control flow, producing a
// bool via a value stored in a temporary slot (keeps the lowering simple
// and phi-free).
func (fl *fnLowerer) lowerShortCircuit(x *BinExpr) (ir.Value, ctype, error) {
	tmp := fl.newSlot(ir.I64)
	lCond, err := fl.lowerCond(x.L)
	if err != nil {
		return nil, cVoid, err
	}
	rhsB := fl.b.NewBlock("sc.rhs")
	exitB := fl.b.NewBlock("sc.exit")
	if x.Op == "&&" {
		fl.b.Store(ir.ConstInt(ir.I64, 0), tmp)
		fl.b.CondBr(lCond, rhsB, exitB)
	} else {
		fl.b.Store(ir.ConstInt(ir.I64, 1), tmp)
		fl.b.CondBr(lCond, exitB, rhsB)
	}
	fl.b.SetBlock(rhsB)
	rCond, err := fl.lowerCond(x.R)
	if err != nil {
		return nil, cVoid, err
	}
	fl.b.Store(fl.boolToInt(rCond), tmp)
	fl.b.Br(exitB)
	fl.b.SetBlock(exitB)
	v := fl.b.Load(ir.I64, tmp)
	return fl.b.ICmp(ir.PredNE, v, ir.ConstInt(ir.I64, 0)), cBool, nil
}

func (fl *fnLowerer) lowerCall(x *CallExpr) (ir.Value, ctype, error) {
	lowerArgs := func(want []ctype) ([]ir.Value, error) {
		if len(x.Args) != len(want) {
			return nil, fmt.Errorf("cc: line %d: %s takes %d arguments", x.Line, x.Name, len(want))
		}
		out := make([]ir.Value, len(want))
		for i, a := range x.Args {
			v, t, err := fl.lowerExpr(a)
			if err != nil {
				return nil, err
			}
			if t == cBool && want[i] == cInt {
				v, t = fl.boolToInt(v), cInt
			}
			if t != want[i] {
				return nil, fmt.Errorf("cc: line %d: %s argument %d is %s, want %s",
					x.Line, x.Name, i+1, t, want[i])
			}
			out[i] = v
		}
		return out, nil
	}

	switch x.Name {
	case "malloc":
		args, err := lowerArgs([]ctype{cInt})
		if err != nil {
			return nil, cVoid, err
		}
		return fl.b.Call(fl.malloc, args...), cPtr, nil
	case "free":
		args, err := lowerArgs([]ctype{cPtr})
		if err != nil {
			return nil, cVoid, err
		}
		fl.b.Call(fl.free, args...)
		return nil, cVoid, nil
	case "print_int":
		args, err := lowerArgs([]ctype{cInt})
		if err != nil {
			return nil, cVoid, err
		}
		fl.b.Call(fl.printI, args...)
		return nil, cVoid, nil
	case "print_float":
		args, err := lowerArgs([]ctype{cFloat})
		if err != nil {
			return nil, cVoid, err
		}
		fl.b.Call(fl.printF, args...)
		return nil, cVoid, nil
	}

	fd, ok := fl.funcs[x.Name]
	if !ok {
		return nil, cVoid, fmt.Errorf("cc: line %d: undefined function %q", x.Line, x.Name)
	}
	want := make([]ctype, len(fd.Params))
	for i, pr := range fd.Params {
		want[i] = pr.Type.ctype()
	}
	args, err := lowerArgs(want)
	if err != nil {
		return nil, cVoid, err
	}
	call := fl.b.Call(fl.irFuncs[x.Name], args...)
	if fd.Ret.Kind == "" {
		return nil, cVoid, nil
	}
	return call, fd.Ret.ctype(), nil
}
